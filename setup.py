"""Setuptools shim for environments without the `wheel` package.

`pip install -e .` uses PEP 660 editable wheels, which requires the `wheel`
package; in fully offline environments without it, `python setup.py develop`
installs the same editable path entry.

The interpreter floor and the NumPy floor are declared here so CI installs
are reproducible: the code uses 3.10+ typing syntax and relies on NumPy
>= 1.24 semantics (Generator.choice over int64 domains, dtype-stable
``np.unique`` inverses) that the kernels are pinned against.
"""
from setuptools import find_packages, setup

setup(
    name="lambada-repro",
    version="0.5.0",
    description="Reproduction of serverless interactive analytics on cold data",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    # The property tests import hypothesis unconditionally.
    extras_require={"test": ["pytest", "hypothesis"]},
)
