"""Legacy setup shim.

The reproduction environment is offline and lacks the ``wheel`` package, so
PEP 517/660 editable builds are unavailable; ``pip install -e .`` uses this
file via the legacy ``setup.py develop`` path.  This file is the only
place the package metadata lives (there is no ``pyproject.toml``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Token-Picker: accelerating attention in text generation with "
        "minimized memory transfer via probability estimation (DAC 2024) "
        "- full reproduction"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.21"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"]},
    entry_points={"console_scripts": ["tokenpicker = repro.cli:main"]},
)
