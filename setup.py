"""Build script: compiles the gate kernels as qtm._kernels_c when a C
compiler is present; without one the package installs and uses the numpy
kernels."""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("qtm._kernels_c", ["src/qtm/_kernels_c.c"], optional=True),
])
