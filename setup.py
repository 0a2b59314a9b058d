"""Package metadata (there is no ``pyproject.toml``).

Installs the ``repro`` package from ``src/`` and the ``repro`` console
script (``repro.cli:main``); works without the ``wheel`` package
(``pip install -e . --no-use-pep517 --no-build-isolation``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
