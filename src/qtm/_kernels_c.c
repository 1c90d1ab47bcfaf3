/* Compiled gate kernels over head-major amplitude arrays.

   Same contract as _kernels_py: in place, on a 1-d state or a 2-d stack of
   states (one per row); amplitude t + h * 2**M of a state is head h, tape
   t, with tape spin mu at bit mu-1 of t. Each kernel is one unit-stride
   pass per state with no temporaries. The rotation spells out numpy's
   complex products term for term, rounding each product on its own as
   numpy does, so both backends agree bit for bit, signed zeros included
   (tests/test_kernels.py checks it). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef struct { double re, im; } cplx;
/* a (re, im) pair as one 16-byte vector: a GCC and Clang extension; a
   compiler without it fails the optional build, leaving the numpy kernels */
typedef double v2d __attribute__((vector_size(16)));

/* Borrow amps as a writable, 1-d or 2-d, C-contiguous complex128 buffer
   whose row length block divides, and set *rows and *n to its number of
   states and amplitudes per state. On failure return NULL with an
   exception set and no buffer held; a buffer of the wrong kind raises
   ValueError. */
static cplx *get_amps(PyObject *obj, Py_buffer *view, Py_ssize_t block,
                      Py_ssize_t *rows, Py_ssize_t *n)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FULL_RO) < 0)
        return NULL;
    const char *why = NULL;
    if (view->readonly)
        why = "amps is read-only";
    else if (view->ndim < 1 || view->ndim > 2 || view->itemsize != 16
             || strcmp(view->format, "Zd") != 0)
        why = "amps must be a 1-d or 2-d complex128 array";
    else if (!PyBuffer_IsContiguous(view, 'C'))
        why = "amps must be C-contiguous";
    else {
        *n = view->shape[view->ndim - 1];
        *rows = view->ndim == 2 ? view->shape[0] : 1;
        if (*n < block || *n % block != 0)
            why = "a state's length is not a multiple of the gate's block";
    }
    if (why == NULL)
        return (cplx *)view->buf;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_ValueError, why);
    return NULL;
}

static PyObject *rotate_head(PyObject *self, PyObject *const *args,
                             Py_ssize_t nargs)
{
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "rotate_head takes 3 arguments");
    double c = PyFloat_AsDouble(args[1]), s = PyFloat_AsDouble(args[2]);
    Py_buffer view;
    Py_ssize_t rows, n;
    if (PyErr_Occurred() || get_amps(args[0], &view, 2, &rows, &n) == NULL)
        return NULL;
    /* numpy computes c*a0 - 1j*s*a1 and -1j*s*a0 + c*a1 as complex
       products with the scalars c + 0j, 1j*s and -1j*s, the last two as
       Python forms them: (0 + 1j)(s + 0j) and (-0 - 1j)(s + 0j). A product
       (kr + i ki) z is (kr z.re - ki z.im, kr z.im + ki z.re), each term
       rounded on its own. Below it is kr*z + (-ki, ki)*swap(z) on (re, im)
       pairs: (-ki)*y is exactly -(ki*y), and x + -(ki*y) is x - ki*y, so
       every component, zero terms and signed zeros included, is numpy's. */
    const double wr = 0.0 * s - 1.0 * 0.0, wi = 0.0 * 0.0 + 1.0 * s;
    const double ur = -0.0 * s - -1.0 * 0.0, ui = -0.0 * 0.0 + -1.0 * s;
    const v2d cr = {c, c}, ci = {-0.0, 0.0}, w_r = {wr, wr}, w_i = {-wi, wi},
              u_r = {ur, ur}, u_i = {-ui, ui};
    const Py_ssize_t half = n / 2;
    Py_BEGIN_ALLOW_THREADS
    for (cplx *a = view.buf, *end = a + rows * n; a < end; a += n)
        for (Py_ssize_t i = 0; i < half; i++) {
            cplx *p0 = a + i, *p1 = a + half + i;
            v2d a0 = {p0->re, p0->im}, a0s = {p0->im, p0->re};
            v2d a1 = {p1->re, p1->im}, a1s = {p1->im, p1->re};
            v2d b0 = (cr * a0 + ci * a0s) - (w_r * a1 + w_i * a1s);
            v2d b1 = (u_r * a0 + u_i * a0s) + (cr * a1 + ci * a1s);
            p0->re = b0[0];
            p0->im = b0[1];
            p1->re = b1[0];
            p1->im = b1[1];
        }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

/* Swap the runs of 2**(mu-1) head-0 amplitudes that differ in tape bit
   mu-1; with negate the swap is signed, (t0, t1) -> (-t1, t0). */
static PyObject *flip(PyObject *const *args, Py_ssize_t nargs, int negate)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "a flip takes 2 arguments");
    long mu = PyLong_AsLong(args[1]);
    if (mu == -1 && PyErr_Occurred())
        return NULL;
    if (mu < 1 || mu > 8 * (long)sizeof(Py_ssize_t) - 3)
        return PyErr_Format(PyExc_ValueError, "mu=%ld out of range", mu);
    Py_ssize_t run = (Py_ssize_t)1 << (mu - 1);
    Py_buffer view;
    Py_ssize_t rows, n;
    if (get_amps(args[0], &view, 4 * run, &rows, &n) == NULL)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    for (cplx *a = view.buf, *end = a + rows * n; a < end; a += n)
        for (Py_ssize_t b = 0; b < n / 2; b += 2 * run)
            for (Py_ssize_t i = b; i < b + run; i++) {
                cplx t = a[i];
                a[i] = a[i + run];
                if (negate) {
                    a[i].re = -a[i].re;
                    a[i].im = -a[i].im;
                }
                a[i + run] = t;
            }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyObject *cnot_flip(PyObject *m, PyObject *const *a, Py_ssize_t n)
{ return flip(a, n, 0); }

static PyObject *cnot_signed_flip(PyObject *m, PyObject *const *a, Py_ssize_t n)
{ return flip(a, n, 1); }

static PyMethodDef methods[] = {
    {"rotate_head", (PyCFunction)(void (*)(void))rotate_head, METH_FASTCALL,
     "rotate_head(amps, c, s): (a0, a1) -> (c a0 - i s a1, -i s a0 + c a1)\n"
     "over the head-0 and head-1 halves of every state."},
    {"cnot_flip", (PyCFunction)(void (*)(void))cnot_flip, METH_FASTCALL,
     "cnot_flip(amps, mu): swap tape spin mu in the head-0 half of every state."},
    {"cnot_signed_flip", (PyCFunction)(void (*)(void))cnot_signed_flip,
     METH_FASTCALL,
     "cnot_signed_flip(amps, mu): (t0, t1) -> (-t1, t0) on tape spin mu\n"
     "in the head-0 half of every state."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernels_c",
    "Compiled gate kernels; qtm._kernels_py is the numpy twin.", -1, methods};

PyMODINIT_FUNC PyInit__kernels_c(void)
{
    return PyModule_Create(&module);
}
