"""Setuptools shim for environments without the `wheel` package.

All metadata lives in pyproject.toml; this file only lets
`python setup.py develop` work on minimal toolchains.
"""

from setuptools import setup

setup()
