/* Compiled kernels: the string metrics, scan counting, the law engine's
 * matcher and splice, and rp-ri's draws.
 *
 * The contract of each kernel is stated once, in soundlaw/kernels.py's
 * docstring; soundlaw._native keeps the same one, and the test suite
 * asserts that the two backends agree and expose the same functions.  How
 * this module meets it: levenshtein compares each pair of symbols once,
 * inside its two-row DP; lcs_pair and the brute-force oracles read each
 * pair more than once, so they first fill an m x n equality table, and
 * their loops read it.  scan_counts interns symbols to small integers
 * through one dict per call.  splice_sites walks the words' lengths to
 * group the sites by word, builds each word's leftmost-wins edit map in an
 * array indexed by token and returns only the words whose output differs.
 * find_sites turns each slot into one bitmap, negation folded in, so a
 * one-byte text is matched by bit tests alone.  draw and draw_clear take
 * their bits through the caller's getrandbits, so they keep a seeded stream;
 * both draw through one below(), and draw_clear tests each word's encoding
 * against find_sites' bitmaps without building it.  soundlaw.kernels
 * compiles this file on first import.
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

/* `p`, an array of `size`-byte items with room for `*cap`, grown to hold at
 * least `want`; NULL with MemoryError set (and `p` left as it was) when it
 * cannot be. */
static void *
grow(void *p, Py_ssize_t *cap, Py_ssize_t want, size_t size)
{
    void *grown;
    if (p != NULL && want <= *cap)
        return p;
    if ((size_t)want > PY_SSIZE_T_MAX / size || (grown = PyMem_Realloc(p, want * size)) == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    *cap = want;
    return grown;
}

/* Intern the symbols of `seq` onto the end of the growable array `*buf`,
 * whose first `*len` slots are in use and `*cap` allocated. */
static int
append_codes(PyObject *seq, PyObject *code, Py_ssize_t **buf, Py_ssize_t *len, Py_ssize_t *cap)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    Py_ssize_t n, want, *grown;
    int rc;
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    if (n > *cap - *len) {
        /* amortised: room for twice what is needed; a sum that would
         * overflow asks for more than grow() gives */
        want = *len + n > (PY_SSIZE_T_MAX - 16) / 2 ? PY_SSIZE_T_MAX : 2 * (*len + n) + 16;
        if ((grown = grow(*buf, cap, want, sizeof(Py_ssize_t))) == NULL) {
            Py_DECREF(fast);
            return -1;
        }
        *buf = grown;
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

/* The kind codes of a law's edits: the order of soundlaw.rules.MAP_KINDS. */
enum { DELETE, REPLACE, INSERT_BEFORE, INSERT_AFTER, N_KINDS };

/* One edit of a law: the window slot it lands on, what it does there and
 * the phones it brings, as a tuple the call owns. */
typedef struct {
    Py_ssize_t pos;
    int kind;
    PyObject *phones;
} Edit;

/* The integer `obj` as a Py_ssize_t in [0, limit), or -1 with TypeError
 * (not an integer) or ValueError (out of range) set. */
static Py_ssize_t
index_below(PyObject *obj, Py_ssize_t limit, const char *what)
{
    Py_ssize_t v;
    PyObject *num = PyNumber_Index(obj);
    if (num == NULL)
        return -1;
    v = PyLong_AsSsize_t(num);
    Py_DECREF(num);
    if (v == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (v >= 0 && v < limit)
        return v;
    PyErr_Format(PyExc_ValueError, "%s out of range", what);
    return -1;
}

/* The state of the word being spliced: its phones, its token count and, per
 * token index, the edit that owns it (-1 for none); `buf` collects its
 * output. */
typedef struct {
    PyObject *word;
    Py_ssize_t ntok;
    Py_ssize_t *at;
    Py_ssize_t at_cap;
    PyObject **buf;
    Py_ssize_t buf_cap;
} Splice;

/* Take `word` as the word being spliced, no edit owning any of its tokens
 * yet; its token count is read off the tuple held, whatever its __len__
 * said. */
static int
splice_open(Splice *s, PyObject *word)
{
    Py_ssize_t i, *at, ntok;
    if ((s->word = PySequence_Tuple(word)) == NULL)
        return -1;
    ntok = 2 * PyTuple_GET_SIZE(s->word) + 3;
    if ((at = grow(s->at, &s->at_cap, ntok, sizeof(Py_ssize_t))) == NULL) {
        Py_CLEAR(s->word);
        return -1;
    }
    s->at = at;
    for (i = 0; i < ntok; i++)
        s->at[i] = -1;
    s->ntok = ntok;
    return 0;
}

/* Record the edits of a site `rel` tokens into the word; an index some
 * earlier site already owns stays with it (leftmost site wins). */
static int
splice_site(Splice *s, Py_ssize_t rel, const Edit *edits, Py_ssize_t ne)
{
    Py_ssize_t e;
    for (e = 0; e < ne; e++) {
        if (edits[e].pos >= s->ntok - rel) {
            PyErr_SetString(PyExc_ValueError, "an edit falls outside its word");
            return -1;
        }
        if (s->at[rel + edits[e].pos] < 0)
            s->at[rel + edits[e].pos] = e;
    }
    return 0;
}

/* Token `idx` of `ntok` is '#' (the first or the last) or '@' (odd). */
static int
reserved_slot(Py_ssize_t idx, Py_ssize_t ntok)
{
    return idx & 1 || idx == 0 || idx == ntok - 1;
}

/* Append `count` borrowed references from `src` to the output at `*i`. */
static void
put(Splice *s, Py_ssize_t *i, PyObject *const *src, Py_ssize_t count)
{
    if (count > 0)
        memcpy(s->buf + *i, src, (size_t)count * sizeof(PyObject *));
    *i += count;
}

/* Apply the owned edits to the word and append (index, output) to `out`
 * when the output differs from the word.  Token 2+2k is word[k]; an edit on
 * a '#' or '@' slot contributes only its phones.  The word is released. */
static int
splice_close(Splice *s, Py_ssize_t index, const Edit *edits, PyObject *out)
{
    PyObject **word = PySequence_Fast_ITEMS(s->word), **buf, *tuple, *pair;
    Py_ssize_t n = PyTuple_GET_SIZE(s->word), len = n, done = 0, k, idx, i;
    const Edit *ed;
    int rc = -1, r, changed;
    for (idx = 0; idx < s->ntok; idx++) {  /* the output's length */
        if (s->at[idx] < 0)
            continue;
        ed = &edits[s->at[idx]];
        if (reserved_slot(idx, s->ntok))
            len += PyTuple_GET_SIZE(ed->phones);
        else if (ed->kind == DELETE)
            len--;
        else
            len += PyTuple_GET_SIZE(ed->phones) - (ed->kind == REPLACE);
    }
    if ((buf = grow(s->buf, &s->buf_cap, len, sizeof(PyObject *))) == NULL)
        goto done;
    s->buf = buf;
    for (i = idx = 0; idx < s->ntok; idx++) {
        PyObject **phones;
        Py_ssize_t np;
        if (s->at[idx] < 0)
            continue;
        ed = &edits[s->at[idx]];
        phones = PySequence_Fast_ITEMS(ed->phones);
        np = PyTuple_GET_SIZE(ed->phones);
        if (reserved_slot(idx, s->ntok)) {  /* '@' before word[idx / 2], or '#' */
            k = idx >> 1 < n ? idx >> 1 : n;
            put(s, &i, word + done, k - done);
            done = k;
            put(s, &i, phones, np);  /* empty for a delete */
            continue;
        }
        k = (idx >> 1) - 1;
        put(s, &i, word + done, k - done);
        done = k + 1;
        if (ed->kind == REPLACE)
            put(s, &i, phones, np);
        else if (ed->kind == INSERT_BEFORE) {
            put(s, &i, phones, np);
            put(s, &i, word + k, 1);
        }
        else if (ed->kind == INSERT_AFTER) {
            put(s, &i, word + k, 1);
            put(s, &i, phones, np);
        }
        /* a delete adds nothing */
    }
    put(s, &i, word + done, n - done);
    changed = len != n;
    for (i = 0; !changed && i < n; i++) {
        if ((r = same(s->buf[i], word[i])) < 0)
            goto done;
        changed = !r;
    }
    if (changed) {
        if ((tuple = PyTuple_New(len)) == NULL)
            goto done;
        for (i = 0; i < len; i++) {
            Py_INCREF(s->buf[i]);
            PyTuple_SET_ITEM(tuple, i, s->buf[i]);
        }
        pair = Py_BuildValue("(nN)", index, tuple);
        if (pair == NULL || PyList_Append(out, pair) < 0) {
            Py_XDECREF(pair);
            goto done;
        }
        Py_DECREF(pair);
    }
    rc = 0;
done:
    Py_CLEAR(s->word);
    return rc;
}

PyDoc_STRVAR(splice_sites_doc,
             "(index, output) of every word that a law's edits at the given site starts change.");

static PyObject *
splice_sites(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *words = NULL, *starts = NULL, *eds = NULL, *out = NULL;
    Splice s = {NULL, 0, NULL, 0, NULL, 0};
    Edit *edits = NULL;
    Py_ssize_t ne = 0, e, i, ns, n, start, prev = -1, index = -1, first = 0, end = -1;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "splice_sites() takes exactly 3 arguments (%zd given)", nargs);
        return NULL;
    }
    /* every argument as a tuple, so that no __index__ or __eq__ can change
     * one under the kernel */
    if ((words = PySequence_Tuple(args[0])) == NULL || (starts = PySequence_Tuple(args[1])) == NULL
        || (eds = PySequence_Tuple(args[2])) == NULL)
        goto done;
    if ((edits = PyMem_New(Edit, PyTuple_GET_SIZE(eds) + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (e = 0; e < PyTuple_GET_SIZE(eds); e++) {
        PyObject *edit = PySequence_Tuple(PyTuple_GET_ITEM(eds, e));
        if (edit == NULL)
            goto done;
        if (PyTuple_GET_SIZE(edit) != 3) {
            PyErr_SetString(PyExc_ValueError, "an edit is (pos, kind code, phones)");
            Py_DECREF(edit);
            goto done;
        }
        edits[e].phones = NULL;
        if ((edits[e].pos = index_below(PyTuple_GET_ITEM(edit, 0), PY_SSIZE_T_MAX, "edit position")) >= 0
            && (edits[e].kind = (int)index_below(PyTuple_GET_ITEM(edit, 1), N_KINDS, "edit kind code")) >= 0)
            edits[e].phones = PySequence_Tuple(PyTuple_GET_ITEM(edit, 2));
        Py_DECREF(edit);
        if (edits[e].phones == NULL)
            goto done;
        ne++;
    }
    if ((out = PyList_New(0)) == NULL)
        goto done;
    ns = PyTuple_GET_SIZE(starts);
    for (i = 0; i < ns; i++) {
        if ((start = index_below(PyTuple_GET_ITEM(starts, i), PY_SSIZE_T_MAX, "site start")) < 0)
            goto fail;
        if (start <= prev) {
            PyErr_SetString(PyExc_ValueError, "site starts must ascend");
            goto fail;
        }
        prev = start;
        if (start > end) {  /* the first site of a later word */
            if (s.word != NULL && splice_close(&s, index, edits, out) < 0)
                goto fail;
            /* word i's line is its 2 * len(words[i]) + 3 tokens, then a newline */
            while (start > end) {
                if (++index >= PyTuple_GET_SIZE(words)) {
                    PyErr_SetString(PyExc_ValueError, "a site lies past the last word");
                    goto fail;
                }
                if ((n = PyObject_Length(PyTuple_GET_ITEM(words, index))) < 0)
                    goto fail;
                if (n > (PY_SSIZE_T_MAX - 4 - end) / 2) {  /* no room for its line */
                    PyErr_SetString(PyExc_ValueError, "a word is too long");
                    goto fail;
                }
                first = end + 1;
                end = first + 2 * n + 3;
            }
            if (start == end) {
                PyErr_SetString(PyExc_ValueError, "a site starts on a newline");
                goto fail;
            }
            if (splice_open(&s, PyTuple_GET_ITEM(words, index)) < 0)
                goto fail;
        }
        if (splice_site(&s, start - first, edits, ne) < 0)
            goto fail;
    }
    if (s.word != NULL && splice_close(&s, index, edits, out) < 0)
        goto fail;
    goto done;
fail:
    Py_CLEAR(out);
done:
    Py_XDECREF(s.word);
    PyMem_Free(s.at);
    PyMem_Free(s.buf);
    for (e = 0; e < ne; e++)
        Py_DECREF(edits[e].phones);
    PyMem_Free(edits);
    Py_XDECREF(words);
    Py_XDECREF(starts);
    Py_XDECREF(eds);
    return out;
}

/* Slots a call keeps on the stack, each one bitmap of the 256 code points
 * below U+0100 and one byte past them; a longer window, or one naming a code
 * point above U+00FF, takes its bitmaps from the heap. */
#define WINDOW_STACK 16
#define STACK_STRIDE (256 / 8 + 1)

/* A window as find_sites reads it.  Slot j's bitmap, `stride` bytes at
 * maps + j * stride, holds a bit for every code point below `limit` the slot
 * matches, negation folded in, and at bit `limit` whether the slot is
 * negated: a character at or past the limit is named by no slot, so it
 * matches exactly the negated ones. */
typedef struct {
    unsigned char *maps;
    Py_ssize_t w, stride;
    Py_UCS4 limit;
    void *heap;
    unsigned char stack[WINDOW_STACK * STACK_STRIDE];
} Window;

/* Read the (negated, chars) slots of a window, `negated` a bool and `chars`
 * a str, so that no Python code runs between sizing the bitmaps and filling
 * them; on failure nothing is held and an exception is set. */
static int
window_open(Window *win, PyObject *arg)
{
    PyObject *fast = PySequence_Fast(arg, "slots must be a sequence"), *pair, *chars;
    Py_ssize_t w, j, c, len;
    Py_UCS4 limit = 256;
    win->heap = NULL;
    if (fast == NULL)
        return -1;
    w = PySequence_Fast_GET_SIZE(fast);
    if (w == 0) {
        PyErr_SetString(PyExc_ValueError, "a window needs at least one slot");
        goto fail;
    }
    /* first pass: check every slot and find the limit, 256 or the highest
     * code point a slot names rounded up to a whole byte */
    for (j = 0; j < w; j++) {
        pair = PySequence_Fast_GET_ITEM(fast, j);
        if (!PyTuple_Check(pair) && !PyList_Check(pair)) {
            PyErr_SetString(PyExc_TypeError, "a slot is a (negated, chars) pair");
            goto fail;
        }
        if (PySequence_Fast_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_ValueError, "a slot is a (negated, chars) pair");
            goto fail;
        }
        chars = PySequence_Fast_GET_ITEM(pair, 1);
        if (!PyBool_Check(PySequence_Fast_GET_ITEM(pair, 0)) || !PyUnicode_Check(chars)) {
            PyErr_SetString(PyExc_TypeError, "a slot is a (bool, str) pair");
            goto fail;
        }
        if (PyUnicode_KIND(chars) == PyUnicode_1BYTE_KIND)
            continue;
        for (c = 0; c < PyUnicode_GET_LENGTH(chars); c++) {
            Py_UCS4 ch = PyUnicode_READ_CHAR(chars, c);
            if (ch >= limit)
                limit = (ch | 7) + 1;
        }
    }
    win->stride = limit / 8 + 1;
    if (w <= WINDOW_STACK && win->stride == STACK_STRIDE)
        win->maps = win->stack;
    else if (w > PY_SSIZE_T_MAX / win->stride
             || (win->maps = win->heap = PyMem_Malloc(w * win->stride)) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (j = 0; j < w; j++) {
        unsigned char *map = win->maps + j * win->stride;
        const void *data;
        int kind;
        pair = PySequence_Fast_GET_ITEM(fast, j);
        chars = PySequence_Fast_GET_ITEM(pair, 1);
        data = PyUnicode_DATA(chars);
        kind = PyUnicode_KIND(chars);
        len = PyUnicode_GET_LENGTH(chars);
        memset(map, 0, (size_t)win->stride);
        for (c = 0; c < len; c++) {
            Py_UCS4 ch = PyUnicode_READ(kind, data, c);
            map[ch >> 3] |= (unsigned char)(1u << (ch & 7));
        }
        if (PySequence_Fast_GET_ITEM(pair, 0) == Py_True) {
            /* every character but the named ones and the newline, the
             * limit's bit included */
            for (c = 0; c < win->stride; c++)
                map[c] = (unsigned char)~map[c];
            map['\n' >> 3] &= (unsigned char)~(1u << ('\n' & 7));
        }
    }
    win->w = w;
    win->limit = limit;
    Py_DECREF(fast);
    return 0;
fail:
    PyMem_Free(win->heap);
    win->heap = NULL;
    Py_DECREF(fast);
    return -1;
}

/* Whether slot j of `win` matches the character `ch`. */
static inline int
slot_has(const Window *win, Py_ssize_t j, Py_UCS4 ch)
{
    const unsigned char *map = win->maps + j * win->stride;
    if (ch > win->limit)
        ch = win->limit;
    return map[ch >> 3] >> (ch & 7) & 1;
}

static int
append_index(PyObject *out, Py_ssize_t i)
{
    PyObject *v = PyLong_FromSsize_t(i);
    int rc = v == NULL ? -1 : PyList_Append(out, v);
    Py_XDECREF(v);
    return rc;
}

PyDoc_STRVAR(find_sites_doc,
             "The ascending start of every site of a window of (negated, chars) slots in `text`.");

static PyObject *
find_sites(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *text, *out;
    Window win;
    Py_ssize_t i, j, w, len;
    const void *data;
    int kind;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "find_sites() takes exactly 2 arguments (%zd given)", nargs);
        return NULL;
    }
    text = args[0];
    if (!PyUnicode_Check(text)) {
        PyErr_SetString(PyExc_TypeError, "text must be a str");
        return NULL;
    }
    if (window_open(&win, args[1]) < 0)
        return NULL;
    if ((out = PyList_New(0)) == NULL)
        goto done;
    w = win.w;
    len = PyUnicode_GET_LENGTH(text);
    data = PyUnicode_DATA(text);
    kind = PyUnicode_KIND(text);
    if (kind == PyUnicode_1BYTE_KIND) {
        /* every character is below U+0100: each slot is one bit test */
        const Py_UCS1 *s = data;
        const unsigned char *first = win.maps;
        for (i = 0; i + w <= len; i++) {
            if (!(first[s[i] >> 3] >> (s[i] & 7) & 1))
                continue;
            for (j = 1; j < w && first[j * win.stride + (s[i + j] >> 3)] >> (s[i + j] & 7) & 1; j++)
                ;
            if (j == w && append_index(out, i) < 0)
                goto fail;
        }
        goto done;
    }
    for (i = 0; i + w <= len; i++) {
        for (j = 0; j < w && slot_has(&win, j, PyUnicode_READ(kind, data, i + j)); j++)
            ;
        if (j == w && append_index(out, i) < 0)
            goto fail;
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(win.heap);
    return out;
}

/* below(n) for n >= 1: getrandbits(n.bit_length()) until it is below n,
 * as CPython's Random._randbelow_with_getrandbits draws; -1 with an
 * exception set when getrandbits fails or gives no integer. */
static Py_ssize_t
below(PyObject *getrandbits, Py_ssize_t n)
{
    PyObject *kobj, *bits;
    Py_ssize_t r;
    int k;
    for (k = 0; n >> k; k++)  /* n.bit_length() */
        ;
    if ((kobj = PyLong_FromLong(k)) == NULL)
        return -1;
    do {
        bits = PyObject_CallOneArg(getrandbits, kobj);
        r = bits == NULL ? -1 : PyLong_AsSsize_t(bits);
        Py_XDECREF(bits);
        if (r == -1 && PyErr_Occurred())
            break;
    } while ((size_t)r >= (size_t)n);  /* a negative r is no draw either */
    Py_DECREF(kobj);
    return r;
}

PyDoc_STRVAR(draw_doc,
             "[pool[below(len(pool))] for pool in pools], below(n) drawing as CPython's "
             "Random._randbelow_with_getrandbits does through `getrandbits`.");

static PyObject *
draw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *getrandbits, *pools, *out = NULL, *pool, *item;
    Py_ssize_t i, np, n, r;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "draw() takes exactly 2 arguments (%zd given)", nargs);
        return NULL;
    }
    getrandbits = args[0];
    /* a tuple, so that no getrandbits can change the pools under the kernel */
    if ((pools = PySequence_Tuple(args[1])) == NULL)
        return NULL;
    np = PyTuple_GET_SIZE(pools);
    if ((out = PyList_New(np)) == NULL)
        goto done;
    /* in pool order, so a pool that cannot be drawn from stops the draw
     * after every pool before it took its bits */
    for (i = 0; i < np; i++) {
        pool = PyTuple_GET_ITEM(pools, i);
        if ((n = PyObject_Length(pool)) < 0)
            goto fail;
        if (n == 0) {
            PyErr_SetString(PyExc_IndexError, "cannot draw from an empty pool");
            goto fail;
        }
        if ((r = below(getrandbits, n)) < 0 || (item = PySequence_GetItem(pool, r)) == NULL)
            goto fail;
        PyList_SET_ITEM(out, i, item);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    Py_DECREF(pools);
    return out;
}

/* Phones of a word whose picks draw_clear keeps on the stack; a longer word
 * takes the heap. */
#define WORD_STACK 64

/* Whether the window matches somewhere in the encoding of the word whose
 * phones are the pool items picks[0..n): "#@", then each phone's code and
 * "@", then "#", read token by token with no copy. */
static int
word_holds(const Window *win, const Py_ssize_t *picks, Py_ssize_t n, int kind, const void *codes)
{
    Py_ssize_t i, j, t, ntok = 2 * n + 3;
    Py_UCS4 ch;
    for (i = 0; i + win->w <= ntok; i++) {
        for (j = 0; j < win->w; j++) {
            t = i + j;
            ch = t == 0 || t == ntok - 1 ? '#' : t & 1 ? '@' : PyUnicode_READ(kind, codes, picks[(t >> 1) - 1]);
            if (!slot_has(win, j, ch))
                break;
        }
        if (j == win->w)
            return 1;
    }
    return 0;
}

PyDoc_STRVAR(draw_clear_doc,
             "`count` words over `pool`, each of lo + below(hi - lo + 1) phones, a word the window "
             "matches drawn again up to `redraws` times.");

static PyObject *
draw_clear(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *getrandbits, *pool = NULL, *codes, *out = NULL, *word;
    Window win;
    Py_ssize_t lo, hi, count, redraws, np, c, t, k, n, cap = 0;
    Py_ssize_t stack[WORD_STACK], *heap = NULL, *picks;
    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError, "draw_clear() takes exactly 8 arguments (%zd given)", nargs);
        return NULL;
    }
    getrandbits = args[0];
    codes = args[2];
    if (!PyUnicode_Check(codes)) {
        PyErr_SetString(PyExc_TypeError, "codes must be a str");
        return NULL;
    }
    if ((lo = index_below(args[4], PY_SSIZE_T_MAX, "lo")) < 0
        || (hi = index_below(args[5], PY_SSIZE_T_MAX, "hi")) < 0
        || (count = index_below(args[6], PY_SSIZE_T_MAX, "count")) < 0
        || (redraws = index_below(args[7], PY_SSIZE_T_MAX, "redraws")) < 0)
        return NULL;
    if (lo > hi) {
        PyErr_SetString(PyExc_ValueError, "lo must not exceed hi");
        return NULL;
    }
    /* a tuple, so that no getrandbits can change the pool under the kernel */
    if ((pool = PySequence_Tuple(args[1])) == NULL)
        return NULL;
    if ((np = PyTuple_GET_SIZE(pool)) != PyUnicode_GET_LENGTH(codes)) {
        PyErr_SetString(PyExc_ValueError, "codes must hold one code per pool item");
        goto release;
    }
    if (np == 0) {
        PyErr_SetString(PyExc_IndexError, "cannot draw from an empty pool");
        goto release;
    }
    if (window_open(&win, args[3]) < 0)
        goto release;
    if ((out = PyList_New(count)) == NULL)
        goto done;
    for (c = 0; c < count; c++) {
        /* the length, then each phone; the last permitted redraw is kept untested */
        for (t = 0;; t++) {
            if ((n = below(getrandbits, hi - lo + 1)) < 0)
                goto fail;
            n += lo;
            if (n <= WORD_STACK)
                picks = stack;
            else if ((picks = grow(heap, &cap, n, sizeof(Py_ssize_t))) != NULL)
                heap = picks;
            else
                goto fail;
            for (k = 0; k < n; k++) {
                if ((picks[k] = below(getrandbits, np)) < 0)
                    goto fail;
            }
            if (t == redraws || !word_holds(&win, picks, n, PyUnicode_KIND(codes), PyUnicode_DATA(codes)))
                break;
        }
        if ((word = PyTuple_New(n)) == NULL)
            goto fail;
        for (k = 0; k < n; k++) {
            PyObject *phone = PyTuple_GET_ITEM(pool, picks[k]);
            Py_INCREF(phone);
            PyTuple_SET_ITEM(word, k, phone);
        }
        PyList_SET_ITEM(out, c, word);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(heap);
    PyMem_Free(win.heap);
release:
    Py_DECREF(pool);
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
    {"splice_sites", (PyCFunction)(void (*)(void))splice_sites, METH_FASTCALL, splice_sites_doc},
    {"find_sites", (PyCFunction)(void (*)(void))find_sites, METH_FASTCALL, find_sites_doc},
    {"draw", (PyCFunction)(void (*)(void))draw, METH_FASTCALL, draw_doc},
    {"draw_clear", (PyCFunction)(void (*)(void))draw_clear, METH_FASTCALL, draw_clear_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "soundlaw._speedups",
    "Compiled kernels; their contracts are stated in soundlaw.kernels.",
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
