/* Compiled kernels: the string metrics, scan counting, the law engine's
 * matcher and splice, and rp-ri's draw of a task's input words.
 *
 * The contract of each kernel is stated once, in soundlaw/kernels.py's
 * docstring; soundlaw._native keeps the same one, and the test suite
 * asserts that the two backends agree and expose the same functions.  How
 * this module meets it: levenshtein compares each pair of symbols once,
 * inside its two-row DP; lcs_pair compares inside its DP and again along its
 * backtrack, as its pure-Python twin does, and keeps at most as many pairs
 * as the DP counted.
 * scan_counts interns symbols to small integers through one dict per call.
 * splice_sites walks the words' lengths to group the sites by word, builds
 * each word's leftmost-wins edit map in an array indexed by token and
 * returns only the words whose output differs.  find_sites turns each slot
 * into one bitmap, negation folded in, so a one-byte text is matched by bit
 * tests alone.  draw_inputs takes its bits through the caller's getrandbits,
 * so it keeps a seeded stream, and every draw goes through one below().  It
 * reads each context slot's members off find_sites' bitmaps once per call,
 * draws each word's phones as pool indices straight into their places in
 * the word, tests a context-free word's phone codes against the bitmaps
 * without joining them, and shuffles the list of words in place.
 * soundlaw.kernels compiles this file on first import.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Bytes of DP slots a call keeps on the stack, 256 of them; a larger pair
 * takes them from the heap.  An lcs_pair of (m + 1)(n + 1) <= 256 slots fits,
 * so up to 15 x 15 symbols, which covers every pair of idp-pi's words; one
 * PyMem_Malloc per call instead read idp_pi's wall_ref 4.6% slower, in 10 of
 * 10 pairs of runs (BENCH_20.json). */
#define PAIR_STACK 2048

/* Both operands of one call, as tuples so that no __eq__ can change them
 * under the kernel, and the kernel's DP slots. */
typedef struct {
    PyObject *ta, *tb;
    PyObject **a, **b;
    Py_ssize_t m, n;
    Py_ssize_t *work;
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

/* Reserve rows * cols DP slots; on failure the pair is closed and an
 * exception set. */
static int
pair_reserve(Pair *p, Py_ssize_t rows, Py_ssize_t cols)
{
    if (cols > 0 && rows > PY_SSIZE_T_MAX / cols)
        p->work = NULL;
    else if (rows * cols <= (Py_ssize_t)Py_ARRAY_LENGTH(p->stack))
        p->work = p->stack;
    else
        p->work = p->heap = PyMem_New(Py_ssize_t, rows * cols);
    if (p->work == NULL) {
        PyErr_NoMemory();
        pair_close(p);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(levenshtein_doc, "Unit-cost edit distance between two symbol sequences.");

static PyObject *
levenshtein(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    Py_ssize_t i, j, d, *prev, *cur, *tmp;
    int r;
    /* each cell is read once, so the DP compares in place and keeps two rows */
    if (pair_open(&p, args, nargs, "levenshtein") < 0 || pair_reserve(&p, 2, p.n + 1) < 0)
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
    int r;
    if (pair_open(&p, args, nargs, "lcs_pair") < 0 || pair_reserve(&p, p.m + 1, p.n + 1) < 0)
        return NULL;
    w = p.n + 1;
    /* L[i * w + j] is the LCS length of a[i:], b[j:] */
    L = p.work;
    for (j = 0; j <= p.n; j++)
        L[p.m * w + j] = 0;
    for (i = p.m - 1; i >= 0; i--) {
        Py_ssize_t *row = L + i * w, *below = row + w;
        row[p.n] = 0;
        for (j = p.n - 1; j >= 0; j--) {
            if ((r = same(p.a[i], p.b[j])) < 0) {
                pair_close(&p);
                return NULL;
            }
            if (r)
                row[j] = below[j + 1] + 1;
            else
                row[j] = below[j] >= row[j + 1] ? below[j] : row[j + 1];
        }
    }
    /* an __eq__ that answers otherwise than in the DP can take more pairs
     * than L[0] or fewer: the tuple keeps at most the first L[0] */
    out = PyTuple_New(L[0]);
    for (i = j = k = 0; out != NULL && k < L[0] && i < p.m && j < p.n;) {
        if ((r = same(p.a[i], p.b[j])) < 0)
            Py_CLEAR(out);
        else if (r) {
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
    if (out != NULL && k < L[0])
        _PyTuple_Resize(&out, k);
    pair_close(&p);
    return out;
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

/* Whether the window matches consecutive phones of the word whose phones
 * are the pool items picks[0..n), read through their codes with no copy. */
static int
word_holds(const Window *win, const Py_ssize_t *picks, Py_ssize_t n, int kind, const void *codes)
{
    Py_ssize_t i, j;
    for (i = 0; i + win->w <= n; i++) {
        for (j = 0; j < win->w && slot_has(win, j, PyUnicode_READ(kind, codes, picks[i + j])); j++)
            ;
        if (j == win->w)
            return 1;
    }
    return 0;
}

/* One draw_inputs call: the caller's getrandbits, the pool, its codes and
 * the context's window, each slot's members as pool indices, and the word
 * being drawn, as the pool indices of its phones in their final order. */
typedef struct {
    PyObject *getrandbits, *pool;
    Window win;
    Py_ssize_t np, lo, hi;
    int kind;
    const void *codes;
    Py_ssize_t *members, *counts;  /* slot j's: members + j * np, counts[j] of them */
    Py_ssize_t *picks, cap;
} Draw;

/* The phone context into `out`: a member of each slot in turn; a slot with
 * no member raises IndexError once the slots before it are drawn. */
static int
draw_context(Draw *d, Py_ssize_t *out)
{
    Py_ssize_t j, r;
    for (j = 0; j < d->win.w; j++) {
        if (d->counts[j] == 0) {
            PyErr_SetString(PyExc_IndexError, "a context slot has no member");
            return -1;
        }
        if ((r = below(d->getrandbits, d->counts[j])) < 0)
            return -1;
        out[j] = d->members[j * d->np + r];
    }
    return 0;
}

/* `count` phones of the pool into `out`. */
static int
draw_rest(Draw *d, Py_ssize_t *out, Py_ssize_t count)
{
    Py_ssize_t k;
    for (k = 0; k < count; k++) {
        if ((out[k] = below(d->getrandbits, d->np)) < 0)
            return -1;
    }
    return 0;
}

/* A word's length, max(minimum, lo + below(hi - lo + 1)), with room for its
 * picks; -1 with an exception set on failure. */
static Py_ssize_t
draw_length(Draw *d, Py_ssize_t minimum)
{
    Py_ssize_t n, *grown;
    if ((n = below(d->getrandbits, d->hi - d->lo + 1)) < 0)
        return -1;
    n = n + d->lo < minimum ? minimum : n + d->lo;
    if ((grown = grow(d->picks, &d->cap, n, sizeof(Py_ssize_t))) == NULL)
        return -1;
    d->picks = grown;
    return n;
}

/* A word of `total` phones holding the context after `at` of the others:
 * the context drawn first, then the others in order around it. */
static int
draw_around(Draw *d, Py_ssize_t total, Py_ssize_t at)
{
    Py_ssize_t w = d->win.w;
    return draw_context(d, d->picks + at) < 0 || draw_rest(d, d->picks, at) < 0
           || draw_rest(d, d->picks + at + w, total - at - w) < 0 ? -1 : 0;
}

/* Put the word of the first `n` picks at out[*len], and count it. */
static int
emit(Draw *d, PyObject *out, Py_ssize_t *len, Py_ssize_t n)
{
    Py_ssize_t k;
    PyObject *word = PyTuple_New(n);
    if (word == NULL)
        return -1;
    for (k = 0; k < n; k++) {
        PyObject *phone = PyTuple_GET_ITEM(d->pool, d->picks[k]);
        Py_INCREF(phone);
        PyTuple_SET_ITEM(word, k, phone);
    }
    PyList_SET_ITEM(out, (*len)++, word);
    return 0;
}

PyDoc_STRVAR(draw_inputs_doc,
             "The `n` input words of an rp-ri task over `pool`, placed against the phone context of "
             "`slots` and shuffled, every draw a below() through `getrandbits`.");

static PyObject *
draw_inputs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Draw d;
    PyObject *codes, *out = NULL, *item;
    Py_ssize_t n, redraws, w, i, j, a, b, t, total, len = 0, tenth, bearing;
    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError, "draw_inputs() takes exactly 8 arguments (%zd given)", nargs);
        return NULL;
    }
    d.getrandbits = args[0];
    codes = args[2];
    if (!PyUnicode_Check(codes)) {
        PyErr_SetString(PyExc_TypeError, "codes must be a str");
        return NULL;
    }
    if ((d.lo = index_below(args[4], PY_SSIZE_T_MAX, "lo")) < 0
        || (d.hi = index_below(args[5], PY_SSIZE_T_MAX, "hi")) < 0
        || (n = index_below(args[6], PY_SSIZE_T_MAX, "n")) < 0
        || (redraws = index_below(args[7], PY_SSIZE_T_MAX, "redraws")) < 0)
        return NULL;
    if (d.lo > d.hi) {
        PyErr_SetString(PyExc_ValueError, "lo must not exceed hi");
        return NULL;
    }
    /* a tuple, so that no getrandbits can change the pool under the kernel */
    if ((d.pool = PySequence_Tuple(args[1])) == NULL)
        return NULL;
    d.members = d.picks = NULL;
    d.cap = 0;
    d.win.heap = NULL;
    if ((d.np = PyTuple_GET_SIZE(d.pool)) != PyUnicode_GET_LENGTH(codes)) {
        PyErr_SetString(PyExc_ValueError, "codes must hold one code per pool item");
        goto done;
    }
    if (d.np == 0) {
        PyErr_SetString(PyExc_IndexError, "cannot draw from an empty pool");
        goto done;
    }
    if (window_open(&d.win, args[3]) < 0)
        goto done;
    w = d.win.w;
    d.kind = PyUnicode_KIND(codes);
    d.codes = PyUnicode_DATA(codes);
    /* each slot's members, in pool order */
    if (w > PY_SSIZE_T_MAX / (d.np + 1) || (d.members = PyMem_New(Py_ssize_t, w * (d.np + 1))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    d.counts = d.members + w * d.np;
    for (j = 0; j < w; j++) {
        d.counts[j] = 0;
        for (i = 0; i < d.np; i++) {
            if (slot_has(&d.win, j, PyUnicode_READ(d.kind, d.codes, i)))
                d.members[j * d.np + d.counts[j]++] = i;
        }
    }
    if ((out = PyList_New(n)) == NULL)
        goto done;
    tenth = n / 10;
    bearing = n - n / 3;  /* ceil(2n / 3) */
    for (i = 0; i < tenth; i++) {  /* begins with the context */
        if ((total = draw_length(&d, w)) < 0 || draw_around(&d, total, 0) < 0 || emit(&d, out, &len, total) < 0)
            goto fail;
    }
    for (i = 0; i < tenth; i++) {  /* ends with it: the others drawn first */
        if ((total = draw_length(&d, w)) < 0 || draw_rest(&d, d.picks, total - w) < 0
            || draw_context(&d, d.picks + total - w) < 0 || emit(&d, out, &len, total) < 0)
            goto fail;
    }
    for (i = 0; i < tenth; i++) {  /* one interior occurrence */
        if ((total = draw_length(&d, w + 2)) < 0 || (a = below(d.getrandbits, total - w - 1)) < 0
            || draw_around(&d, total, 1 + a) < 0 || emit(&d, out, &len, total) < 0)
            goto fail;
    }
    for (i = 0; i < tenth; i++) {  /* two interior occurrences: both contexts, then the others */
        if ((total = draw_length(&d, 2 * w + 3)) < 0 || (a = below(d.getrandbits, total - 2 * w - 2)) < 0
            || (b = below(d.getrandbits, total - 2 * w - 2 - a)) < 0
            || draw_context(&d, d.picks + 1 + a) < 0 || draw_context(&d, d.picks + 2 + a + b + w) < 0
            || draw_rest(&d, d.picks, 1 + a) < 0 || draw_rest(&d, d.picks + 1 + a + w, 1 + b) < 0
            || draw_rest(&d, d.picks + 2 + a + b + 2 * w, total - 2 - a - b - 2 * w) < 0
            || emit(&d, out, &len, total) < 0)
            goto fail;
    }
    while (len < bearing) {  /* anywhere */
        if ((total = draw_length(&d, w)) < 0 || (a = below(d.getrandbits, total - w + 1)) < 0
            || draw_around(&d, total, a) < 0 || emit(&d, out, &len, total) < 0)
            goto fail;
    }
    while (len < n) {  /* free of the context; the last permitted redraw is kept untested */
        for (t = 0;; t++) {
            if ((total = draw_length(&d, 0)) < 0 || draw_rest(&d, d.picks, total) < 0)
                goto fail;
            if (t == redraws || !word_holds(&d.win, d.picks, total, d.kind, d.codes))
                break;
        }
        if (emit(&d, out, &len, total) < 0)
            goto fail;
    }
    for (i = n - 1; i > 0; i--) {  /* random.shuffle's swaps */
        if ((j = below(d.getrandbits, i + 1)) < 0)
            goto fail;
        item = PyList_GET_ITEM(out, i);
        PyList_SET_ITEM(out, i, PyList_GET_ITEM(out, j));
        PyList_SET_ITEM(out, j, item);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(d.picks);
    PyMem_Free(d.members);
    PyMem_Free(d.win.heap);
    Py_DECREF(d.pool);
    return out;
}

static PyMethodDef methods[] = {
    {"levenshtein", (PyCFunction)(void (*)(void))levenshtein, METH_FASTCALL, levenshtein_doc},
    {"lcs_pair", (PyCFunction)(void (*)(void))lcs_pair, METH_FASTCALL, lcs_pair_doc},
    {"scan_counts", (PyCFunction)(void (*)(void))scan_counts, METH_FASTCALL, scan_counts_doc},
    {"splice_sites", (PyCFunction)(void (*)(void))splice_sites, METH_FASTCALL, splice_sites_doc},
    {"find_sites", (PyCFunction)(void (*)(void))find_sites, METH_FASTCALL, find_sites_doc},
    {"draw_inputs", (PyCFunction)(void (*)(void))draw_inputs, METH_FASTCALL, draw_inputs_doc},
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
