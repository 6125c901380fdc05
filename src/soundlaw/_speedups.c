/* Compiled string-metric kernels.
 *
 * Mirrors soundlaw._native exactly (same functions, same tie-breaks, same
 * ValueError guard); the test suite asserts that the two backends agree and
 * expose the same functions, bar the Python-only oracle
 * count_scan_occurrences.  The pairwise kernels compare symbols with `==`,
 * as _native does, so any symbols work (tuple, list or str operands alike).
 * levenshtein compares each pair of symbols once, inside its two-row DP;
 * lcs_pair and the brute-force oracles read each pair more than once, so
 * they first fill an m x n equality table, and their loops read it.
 * Besides the pairwise edit-distance and LCS kernels, scan_counts weights a
 * whole batch of idp-pi context candidates against one word list in a
 * single call; it interns symbols to small integers through one dict per
 * call.  soundlaw.kernels compiles this file on first import when no built
 * extension is installed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Bytes of DP slots and equality table a call keeps on the stack; a larger
 * pair takes them from the heap.  An lcs_pair of up to 14 x 14 symbols fits,
 * which covers every pair of idp-pi's words; one PyMem_Malloc per call
 * instead read idp_pi's wall_ref 4.6% slower, in 10 of 10 pairs of runs
 * (BENCH_20.json). */
#define PAIR_STACK 2048

/* Both operands of one call, as tuples so that no __eq__ can change them
 * under the kernel, and the kernel's work area: its DP slots, then (if it
 * asked for one) eq[i * n + j], which is 1 when a[i] == b[j]. */
typedef struct {
    PyObject *ta, *tb;
    PyObject **a, **b;
    Py_ssize_t m, n;
    Py_ssize_t *work;
    unsigned char *eq;
    void *heap;
    Py_ssize_t stack[PAIR_STACK / sizeof(Py_ssize_t)];
} Pair;

/* x == y: 1 or 0, or -1 with the exception of a raising __eq__ set. */
static int
same(PyObject *x, PyObject *y)
{
    if (x == y)
        return 1;
    if (PyUnicode_CheckExact(x) && PyUnicode_CheckExact(y)) {
        /* equal strings share one canonical kind, as CPython's own == relies on */
        Py_ssize_t len = PyUnicode_GET_LENGTH(x);
        int kind = PyUnicode_KIND(x);
        return len == PyUnicode_GET_LENGTH(y) && kind == (int)PyUnicode_KIND(y)
               && memcmp(PyUnicode_DATA(x), PyUnicode_DATA(y), (size_t)len * kind) == 0;
    }
    return PyObject_RichCompareBool(x, y, Py_EQ);
}

static void
pair_close(Pair *p)
{
    Py_XDECREF(p->ta);
    Py_XDECREF(p->tb);
    PyMem_Free(p->heap);
}

/* Take both operands of a call; on failure the pair is closed and an
 * exception set. */
static int
pair_open(Pair *p, PyObject *const *args, Py_ssize_t nargs, const char *name)
{
    p->ta = p->tb = NULL;
    p->heap = NULL;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly 2 arguments (%zd given)", name, nargs);
        return -1;
    }
    p->ta = PySequence_Tuple(args[0]);
    p->tb = p->ta ? PySequence_Tuple(args[1]) : NULL;
    if (p->tb == NULL) {
        pair_close(p);
        return -1;
    }
    p->a = PySequence_Fast_ITEMS(p->ta);
    p->b = PySequence_Fast_ITEMS(p->tb);
    p->m = PyTuple_GET_SIZE(p->ta);
    p->n = PyTuple_GET_SIZE(p->tb);
    return 0;
}

/* Reserve rows * cols DP slots and, when `table` is set, fill the equality
 * table after them; on failure the pair is closed and an exception set. */
static int
pair_reserve(Pair *p, Py_ssize_t rows, Py_ssize_t cols, int table)
{
    Py_ssize_t i, j, words, cells = 0;
    size_t bytes;
    unsigned char *eq;
    int r;
    if (table) {
        if (p->n > 0 && p->m > PY_SSIZE_T_MAX / p->n)
            goto nomem;
        cells = p->m * p->n;
    }
    if (cols > 0 && rows > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Py_ssize_t) / cols)
        goto nomem;
    words = rows * cols;
    if (words > (PY_SSIZE_T_MAX - cells) / (Py_ssize_t)sizeof(Py_ssize_t))
        goto nomem;
    bytes = (size_t)words * sizeof(Py_ssize_t) + (size_t)cells;
    if (bytes <= sizeof(p->stack))
        p->work = p->stack;
    else if ((p->work = p->heap = PyMem_Malloc(bytes)) == NULL)
        goto nomem;
    p->eq = eq = (unsigned char *)(p->work + words);
    for (i = 0; table && i < p->m; i++) {
        for (j = 0; j < p->n; j++) {
            if ((r = same(p->a[i], p->b[j])) < 0) {
                pair_close(p);
                return -1;
            }
            *eq++ = (unsigned char)r;
        }
    }
    return 0;
nomem:
    PyErr_NoMemory();
    pair_close(p);
    return -1;
}

PyDoc_STRVAR(levenshtein_doc, "Unit-cost edit distance between two symbol sequences.");

static PyObject *
levenshtein(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    Py_ssize_t i, j, d, *prev, *cur, *tmp;
    int r;
    /* each cell is read once, so the DP compares in place and keeps two rows */
    if (pair_open(&p, args, nargs, "levenshtein") < 0 || pair_reserve(&p, 2, p.n + 1, 0) < 0)
        return NULL;
    prev = p.work;
    cur = prev + p.n + 1;
    for (j = 0; j <= p.n; j++)
        prev[j] = j;
    for (i = 1; i <= p.m; i++) {
        cur[0] = i;
        for (j = 1; j <= p.n; j++) {
            if ((r = same(p.a[i - 1], p.b[j - 1])) < 0) {
                pair_close(&p);
                return NULL;
            }
            d = prev[j - 1] + !r;
            if (prev[j] + 1 < d)
                d = prev[j] + 1;
            if (cur[j - 1] + 1 < d)
                d = cur[j - 1] + 1;
            cur[j] = d;
        }
        tmp = prev;
        prev = cur;
        cur = tmp;
    }
    d = prev[p.n];
    pair_close(&p);
    return PyLong_FromSsize_t(d);
}

PyDoc_STRVAR(lcs_pair_doc, "A longest common subsequence; leftmost-in-`a` tie-break.");

static PyObject *
lcs_pair(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    Py_ssize_t i, j, k, w, *L;
    PyObject *out;
    /* the backtrack reads the DP's equalities again, so both read one table */
    if (pair_open(&p, args, nargs, "lcs_pair") < 0 || pair_reserve(&p, p.m + 1, p.n + 1, 1) < 0)
        return NULL;
    w = p.n + 1;
    /* L[i * w + j] is the LCS length of a[i:], b[j:] */
    L = p.work;
    for (j = 0; j <= p.n; j++)
        L[p.m * w + j] = 0;
    for (i = p.m - 1; i >= 0; i--) {
        const unsigned char *eq = p.eq + i * p.n;
        Py_ssize_t *row = L + i * w, *below = row + w;
        row[p.n] = 0;
        for (j = p.n - 1; j >= 0; j--) {
            if (eq[j])
                row[j] = below[j + 1] + 1;
            else
                row[j] = below[j] >= row[j + 1] ? below[j] : row[j + 1];
        }
    }
    out = PyTuple_New(L[0]);
    for (i = j = k = 0; out != NULL && i < p.m && j < p.n;) {
        if (p.eq[i * p.n + j]) {
            PyObject *sym = p.a[i];
            Py_INCREF(sym);
            PyTuple_SET_ITEM(out, k++, sym);
            i++;
            j++;
        }
        else if (L[i * w + j + 1] >= L[(i + 1) * w + j])
            j++;
        else
            i++;
    }
    pair_close(&p);
    return out;
}

/* Advance `comb` (k increasing indices below n) to the next combination in
 * lexicographic order; 0 once the last one has been passed. */
static int
next_comb(Py_ssize_t *comb, Py_ssize_t k, Py_ssize_t n)
{
    Py_ssize_t i = k - 1, j;
    while (i >= 0 && comb[i] == n - k + i)
        i--;
    if (i < 0)
        return 0;
    comb[i]++;
    for (j = i + 1; j < k; j++)
        comb[j] = comb[j - 1] + 1;
    return 1;
}

PyDoc_STRVAR(levenshtein_bruteforce_doc,
             "Edit distance by exhaustive enumeration of monotone alignments.");

static PyObject *
levenshtein_bruteforce(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    Py_ssize_t k, t, kmax, cost, best, *ii, *jj;
    if (pair_open(&p, args, nargs, "levenshtein_bruteforce") < 0)
        return NULL;
    best = p.m + p.n;
    kmax = p.m < p.n ? p.m : p.n;
    if (pair_reserve(&p, 2, kmax, 1) < 0)
        return NULL;
    ii = p.work;
    jj = ii + kmax;
    for (k = 1; k <= kmax; k++) {
        for (t = 0; t < k; t++)
            ii[t] = t;
        do {
            for (t = 0; t < k; t++)
                jj[t] = t;
            do {
                cost = (p.m - k) + (p.n - k);
                for (t = 0; t < k; t++)
                    cost += !p.eq[ii[t] * p.n + jj[t]];
                if (cost < best)
                    best = cost;
            } while (next_comb(jj, k, p.n));
        } while (next_comb(ii, k, p.m));
    }
    pair_close(&p);
    return PyLong_FromSsize_t(best);
}

PyDoc_STRVAR(lcs_len_bruteforce_doc,
             "LCS length by enumerating every subsequence of the first argument.");

static PyObject *
lcs_len_bruteforce(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    Py_ssize_t i, j, cnt, best = 0, m = nargs == 2 ? PyObject_Length(args[0]) : 0;
    unsigned long mask;
    if (m < 0)
        return NULL;
    if (m > 20) {
        PyErr_SetString(PyExc_ValueError,
                        "bruteforce LCS limited to sequences of length <= 20");
        return NULL;
    }
    if (pair_open(&p, args, nargs, "lcs_len_bruteforce") < 0 || pair_reserve(&p, 0, 0, 1) < 0)
        return NULL;
    for (mask = 0; mask < (1UL << p.m); mask++) {
        for (cnt = i = 0; i < p.m; i++)
            cnt += (mask >> i) & 1UL;
        if (cnt <= best)
            continue;
        /* greedy leftmost embedding of the chosen symbols into b */
        for (i = j = 0; i < p.m; i++) {
            if (!((mask >> i) & 1UL))
                continue;
            while (j < p.n && !p.eq[i * p.n + j])
                j++;
            if (j == p.n)
                break;
            j++;
        }
        if (i == p.m)
            best = cnt;
    }
    pair_close(&p);
    return PyLong_FromSsize_t(best);
}

/* Intern each symbol of `fast` to a small integer through the dict `code`. */
static int
encode(PyObject *fast, Py_ssize_t *out, PyObject *code)
{
    Py_ssize_t i, len = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (i = 0; i < len; i++) {
        PyObject *v = PyDict_GetItemWithError(code, items[i]);
        if (v != NULL) {
            out[i] = PyLong_AsSsize_t(v);
            continue;
        }
        if (PyErr_Occurred())
            return -1;
        out[i] = PyDict_GET_SIZE(code);
        v = PyLong_FromSsize_t(out[i]);
        if (v == NULL || PyDict_SetItem(code, items[i], v) < 0) {
            Py_XDECREF(v);
            return -1;
        }
        Py_DECREF(v);
    }
    return 0;
}

/* Intern the symbols of `seq` onto the end of the growable array `*buf`,
 * whose first `*len` slots are in use and `*cap` allocated. */
static int
append_codes(PyObject *seq, PyObject *code, Py_ssize_t **buf, Py_ssize_t *len, Py_ssize_t *cap)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    Py_ssize_t n;
    int rc;
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    if (n > *cap - *len) {
        Py_ssize_t want = 2 * (*len + n) + 16;
        Py_ssize_t *grown;
        if (*len + n > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)sizeof(Py_ssize_t) - 16)
            grown = NULL;
        else
            grown = PyMem_Realloc(*buf, want * sizeof(Py_ssize_t));
        if (grown == NULL) {
            Py_DECREF(fast);
            PyErr_NoMemory();
            return -1;
        }
        *buf = grown;
        *cap = want;
    }
    rc = encode(fast, *buf + *len, code);
    Py_DECREF(fast);
    if (rc == 0)
        *len += n;
    return rc;
}

PyDoc_STRVAR(scan_counts_doc,
             "For each candidate, its disjoint left-to-right scan count summed over `words`.");

static PyObject *
scan_counts(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fw = NULL, *fc = NULL, *code = NULL, *out = NULL, *v;
    Py_ssize_t i, w, t, k, total, nw, nc, wlen = 0, wcap = 0, clen, ccap = 0;
    Py_ssize_t *xw = NULL, *xc = NULL, *ends = NULL;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "scan_counts() takes exactly 2 arguments (%zd given)", nargs);
        return NULL;
    }
    fw = PySequence_Fast(args[1], "expected a sequence");
    if (fw == NULL)
        return NULL;
    nw = PySequence_Fast_GET_SIZE(fw);
    code = PyDict_New();
    ends = PyMem_New(Py_ssize_t, nw + 1);
    if (code == NULL || ends == NULL) {
        if (ends == NULL)
            PyErr_NoMemory();
        goto done;
    }
    /* the words are interned once, end to end; ends[w] is where word w stops */
    for (w = 0; w < nw; w++) {
        if (append_codes(PySequence_Fast_GET_ITEM(fw, w), code, &xw, &wlen, &wcap) < 0)
            goto done;
        ends[w] = wlen;
    }
    fc = PySequence_Fast(args[0], "expected a sequence");
    if (fc == NULL)
        goto done;
    nc = PySequence_Fast_GET_SIZE(fc);
    out = PyList_New(nc);
    for (i = 0; out != NULL && i < nc; i++) {
        /* a symbol no word holds gets a fresh code, so it never matches */
        clen = 0;
        if (append_codes(PySequence_Fast_GET_ITEM(fc, i), code, &xc, &clen, &ccap) < 0) {
            Py_CLEAR(out);
            break;
        }
        total = 0;
        for (w = 0, t = 0; clen > 0 && w < nw; w++) {
            for (k = 0; t < ends[w]; t++) {
                if (xw[t] != xc[k])
                    continue;
                if (++k == clen) {
                    total++;
                    k = 0;
                }
            }
        }
        v = PyLong_FromSsize_t(total);
        if (v == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, i, v);
    }
done:
    PyMem_Free(xw);
    PyMem_Free(xc);
    PyMem_Free(ends);
    Py_XDECREF(code);
    Py_XDECREF(fc);
    Py_DECREF(fw);
    return out;
}

static PyMethodDef methods[] = {
    {"levenshtein", (PyCFunction)(void (*)(void))levenshtein, METH_FASTCALL, levenshtein_doc},
    {"lcs_pair", (PyCFunction)(void (*)(void))lcs_pair, METH_FASTCALL, lcs_pair_doc},
    {"levenshtein_bruteforce", (PyCFunction)(void (*)(void))levenshtein_bruteforce,
     METH_FASTCALL, levenshtein_bruteforce_doc},
    {"lcs_len_bruteforce", (PyCFunction)(void (*)(void))lcs_len_bruteforce, METH_FASTCALL,
     lcs_len_bruteforce_doc},
    {"scan_counts", (PyCFunction)(void (*)(void))scan_counts, METH_FASTCALL, scan_counts_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "soundlaw._speedups",
    "Compiled string-metric kernels; same contract as soundlaw._native.",
    0,
    methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
