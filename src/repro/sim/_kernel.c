/* Native demand kernel: the whole ``run_simulation`` record loop in C.
 *
 * One call to ``run()`` drives every trace record through the cache
 * hierarchy -- warmup and measuring phases, the timing arithmetic, per-PC
 * miss counts, L1/L2/L3 set-scan lookups, tree-PLRU / SRRIP, the L2 MSHR
 * file, the DRAM channel, the TLB, the prefetch overflow queue, the fused
 * L2 fill -> L3 spill path, and the stride (or no) L1 prefetcher.  The
 * state lives in plain C arrays owned by one ``Kernel`` for the duration
 * of the call.
 *
 * Triage, Triangel and Prophet train and walk here too (the native
 * temporal step, ``tp_observe``), on their own Python objects.  Every
 * other L2 prefetcher stays in Python: the kernel calls
 * ``observe_fast(pc, line)`` when the prefetcher has one, else the
 * generic ``observe(L2AccessInfo)`` (plus ``drain_metadata_traffic()``
 * for off-chip metadata schemes), along with ``note_useful`` /
 * ``note_issued`` and a non-stride L1 prefetcher's ``observe``.  After a
 * resize poll the kernel calls back into Python to apply the resize and
 * re-fetches every prefetcher callable and the native step's state (the
 * rebind rule).
 *
 * Output must be bit-identical to ``repro.sim.engine.run_simulation``:
 * every branch below mirrors ``Hierarchy._bind_demand_kernel`` and the
 * engine loop statement for statement, including the floating-point
 * evaluation order (built with -ffp-contract=off so no FMA reassociates
 * it).  Two simplifications are exact because the engine never issues
 * writes: no line is ever dirty, so there are no dirty bits and no
 * DRAM writebacks -- DRAM writes come only from off-chip metadata.
 * Cache statistics that never reach a ``SimResult`` are not kept.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define F_PF 2
#define F_USED 4
#define SRC_SHIFT 3
#define PF_L1 1
#define PF_L2 2
#define FILL_PF_L1 (F_PF | (PF_L1 << SRC_SHIFT))
#define FILL_PF_L2 (F_PF | (PF_L2 << SRC_SHIFT))
#define RRPV_MAX 3 /* 2-bit SRRIP: fills insert at RRPV_MAX - 1 */

enum { LV_L1 = 1, LV_L2, LV_L3, LV_DRAM };

static PyObject *str_line, *str_trigger_pc;

/* ------------------------------------------------------------------ */
/* int64 -> slot map: open addressing, linear probing, backward-shift  */
/* deletion.  ``slots`` holds value + 1 (0 == empty); keys live in the */
/* caller's arrays, reached through ``keys``.                          */
/* ------------------------------------------------------------------ */
typedef struct {
    int32_t *slots;
    size_t mask;
    const int64_t *keys; /* value -> key */
} IdxMap;

static inline size_t mix(int64_t k)
{
    uint64_t x = (uint64_t)k;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return (size_t)x;
}

static int im_init(IdxMap *m, size_t min_slots)
{
    size_t n = 16;
    while (n < min_slots) n <<= 1;
    m->slots = calloc(n, sizeof(int32_t));
    m->mask = n - 1;
    return m->slots ? 0 : -1;
}

/* Probe position of ``key``: its slot if present, else the empty slot. */
static inline size_t im_probe(const IdxMap *m, int64_t key)
{
    size_t i = mix(key) & m->mask;
    int32_t s;
    while ((s = m->slots[i]) && m->keys[s - 1] != key) i = (i + 1) & m->mask;
    return i;
}

static void im_delete(IdxMap *m, int64_t key)
{
    size_t i = im_probe(m, key), j = i;
    if (!m->slots[i]) return;
    for (;;) {
        j = (j + 1) & m->mask;
        int32_t s = m->slots[j];
        if (!s) break;
        size_t home = mix(m->keys[s - 1]) & m->mask;
        /* Move j back into the hole unless its home lies in (i, j]. */
        int stays = i <= j ? (home > i && home <= j) : (home > i || home <= j);
        if (!stays) {
            m->slots[i] = s;
            i = j;
        }
    }
    m->slots[i] = 0;
}

/* Insertion-ordered per-PC counters (a ``defaultdict(int)`` stand-in). */
typedef struct {
    int64_t *keys, *vals;
    Py_ssize_t n, cap;
    IdxMap idx;
} CountMap;

static int cm_init(CountMap *c)
{
    c->n = 0;
    c->cap = 64;
    c->keys = malloc(c->cap * sizeof(int64_t));
    c->vals = malloc(c->cap * sizeof(int64_t));
    if (!c->keys || !c->vals || im_init(&c->idx, 2 * c->cap) < 0) return -1;
    c->idx.keys = c->keys;
    return 0;
}

static int cm_incr(CountMap *c, int64_t key)
{
    size_t i = im_probe(&c->idx, key);
    int32_t s = c->idx.slots[i];
    if (s) {
        c->vals[s - 1]++;
        return 0;
    }
    if (c->n == c->cap) {
        Py_ssize_t cap = c->cap * 2;
        int64_t *k = realloc(c->keys, cap * sizeof(int64_t));
        if (!k) return -1;
        c->keys = k;
        int64_t *v = realloc(c->vals, cap * sizeof(int64_t));
        if (!v) return -1;
        c->vals = v;
        free(c->idx.slots);
        if (im_init(&c->idx, 2 * cap) < 0) return -1;
        c->idx.keys = c->keys;
        c->cap = cap;
        for (Py_ssize_t e = 0; e < c->n; e++)
            c->idx.slots[im_probe(&c->idx, c->keys[e])] = (int32_t)e + 1;
        i = im_probe(&c->idx, key);
    }
    c->keys[c->n] = key;
    c->vals[c->n] = 1;
    c->idx.slots[i] = (int32_t)++c->n;
    return 0;
}

static void cm_clear(CountMap *c)
{
    c->n = 0;
    memset(c->idx.slots, 0, (c->idx.mask + 1) * sizeof(int32_t));
}

static PyObject *cm_to_dict(const CountMap *c)
{
    PyObject *d = PyDict_New();
    for (Py_ssize_t e = 0; d && e < c->n; e++) {
        PyObject *k = PyLong_FromLongLong(c->keys[e]);
        PyObject *v = PyLong_FromLongLong(c->vals[e]);
        if (!k || !v || PyDict_SetItem(d, k, v) < 0) Py_CLEAR(d);
        Py_XDECREF(k);
        Py_XDECREF(v);
    }
    return d;
}

static void cm_free(CountMap *c)
{
    free(c->keys);
    free(c->vals);
    free(c->idx.slots);
}

/* ------------------------------------------------------------------ */
/* caches: flat per-slot arrays indexed by set * assoc + way           */
/* ------------------------------------------------------------------ */
typedef struct {
    Py_ssize_t n_sets;
    int64_t set_mask; /* n_sets - 1 when n_sets is a power of two, else -1 */
    int assoc, levels;
    int64_t *tags;    /* -1 == invalid */
    uint8_t *flags;   /* F_PF | F_USED | source << SRC_SHIFT (L1/L2) */
    double *ready;    /* L2 only */
    int64_t *trigger; /* L2 only */
    uint8_t *counts;  /* resident lines per set */
    uint8_t *plru;    /* tree-PLRU direction bits, assoc per set (L1/L2) */
    int8_t *rrpv;     /* SRRIP (L3) */
} Cache;

static int cache_init(Cache *c, Py_ssize_t n_sets, int assoc, int l2_fields, int srrip)
{
    Py_ssize_t n = n_sets * assoc;
    c->n_sets = n_sets;
    c->set_mask = n_sets & (n_sets - 1) ? -1 : n_sets - 1;
    c->assoc = assoc;
    c->levels = 0;
    while ((1 << c->levels) < assoc) c->levels++;
    c->tags = malloc(n * sizeof(int64_t));
    c->flags = srrip ? NULL : calloc(n, 1);
    c->counts = calloc(n_sets, 1);
    c->ready = l2_fields ? calloc(n, sizeof(double)) : NULL;
    c->trigger = l2_fields ? malloc(n * sizeof(int64_t)) : NULL;
    c->plru = srrip ? NULL : calloc(n, 1);
    c->rrpv = srrip ? malloc(n) : NULL;
    if (!c->tags || !c->counts || (l2_fields && (!c->ready || !c->trigger))
        || (srrip ? !c->rrpv : !c->flags || !c->plru))
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) c->tags[i] = -1;
    if (srrip) memset(c->rrpv, RRPV_MAX, n);
    return 0;
}

static void cache_free(Cache *c)
{
    free(c->tags);
    free(c->flags);
    free(c->counts);
    free(c->ready);
    free(c->trigger);
    free(c->plru);
    free(c->rrpv);
}

/* Python's floor modulo; a mask when the set count allows (the division
 * is the most expensive step of a lookup). */
static inline Py_ssize_t set_of(const Cache *c, int64_t line)
{
    if (c->set_mask >= 0) return (Py_ssize_t)(line & c->set_mask);
    int64_t s = line % c->n_sets;
    return (Py_ssize_t)(s < 0 ? s + c->n_sets : s);
}

static inline Py_ssize_t lookup(const Cache *c, int64_t line)
{
    Py_ssize_t base = set_of(c, line) * c->assoc;
    for (int w = 0; w < c->assoc; w++)
        if (c->tags[base + w] == line) return base + w;
    return -1;
}

/* First invalid way among the first ``ways`` ways of the set at ``base``. */
static inline int free_way(const Cache *c, Py_ssize_t base, int ways)
{
    int w = 0;
    while (w < ways && c->tags[base + w] != -1) w++;
    return w;
}

/* Tree-PLRU touch: point every node on the way's path away from it. */
static inline void plru_touch(Cache *c, Py_ssize_t idx)
{
    Py_ssize_t set = idx / c->assoc;
    int way = (int)(idx - set * c->assoc);
    uint8_t *bits = c->plru + set * c->assoc;
    int node = 0, span = c->assoc, offset = 0;
    for (int l = 0; l < c->levels; l++) {
        int half = span / 2;
        int right = way - offset >= half;
        bits[node] = !right;
        node = 2 * node + (right ? 2 : 1);
        if (right) offset += half;
        span = half;
    }
}

static inline int plru_victim(const Cache *c, Py_ssize_t set)
{
    const uint8_t *bits = c->plru + set * c->assoc;
    int node = 0, span = c->assoc, offset = 0;
    for (int l = 0; l < c->levels; l++) {
        int half = span / 2;
        if (bits[node]) {
            node = 2 * node + 2;
            offset += half;
        } else {
            node = 2 * node + 1;
        }
        span = half;
    }
    return offset;
}

/* Slot for a new line in a PLRU cache (victim dropped, no spill). */
static inline Py_ssize_t plru_slot(Cache *c, int64_t line, int64_t *victim)
{
    Py_ssize_t set = set_of(c, line), base = set * c->assoc;
    *victim = -1;
    if (c->counts[set] < c->assoc) {
        c->counts[set]++;
        return base + free_way(c, base, c->assoc);
    }
    Py_ssize_t idx = base + plru_victim(c, set);
    *victim = c->tags[idx];
    return idx;
}

/* ------------------------------------------------------------------ */
/* native temporal-prefetcher step                                     */
/* ------------------------------------------------------------------ */
/* Triage, Triangel and Prophet's per-access observe, statement for
 * statement: ``TriagePrefetcher.observe``, ``TriangelPrefetcher.observe``
 * and the fused pass of ``ProphetPrefetcher._bind_observe`` are the
 * oracles.  The state stays in the prefetcher's own Python objects --
 * the trainer, sampler and last-line dicts, the metadata table's index
 * dicts and flat arrays, the MVB's slot dict and arrays, Triage's key
 * sets -- reached through the C API and the buffer protocol.  Only the
 * scalar counters live here: ``tp_store`` writes them back and drops
 * every reference before each Python callback and at the end of the run,
 * and ``tp_load`` re-fetches everything after it (a resize rebuilds the
 * table).  A line the packed trainer int cannot hold in int64 runs that
 * access through the Python observe instead (the hatch). */
enum { TP_PY, TP_TRIAGE, TP_TRIANGEL, TP_PROPHET };
#define TP_HATCH 1 /* tp_observe: the Python observe must run this access */

/* Packed trainer entry: (last_line + 1) << 24 | blocked << 8 | pattern << 4 | reuse. */
#define T_LAST_SHIFT 24
#define T_BLOCKED_MASK 0xFFFF
#define T_LINE_LIMIT ((int64_t)1 << (63 - T_LAST_SHIFT)) /* bound on line + 1 */
#define CONF_MAX 15        /* PATTERN_CONF_MAX, REUSE_CONF_MAX */
#define RUNTIME_PRIORITY 1 /* repro.core.prophet.RUNTIME_PRIORITY */
#define MVB_COUNTER_MAX 3  /* repro.core.mvb.COUNTER_MAX */

/* Scalar counters cached in C, and the Python attributes they mirror. */
enum { ST_INS, ST_REPL, ST_OVER, ST_LOOKUPS, ST_HITS, ST_PEAK, N_ST };
static const char *const ST_NAMES[N_ST] = {"insertions", "replacements", "overwrites",
                                           "lookups", "hits", "peak_allocated"};
enum { PF_AI, PF_USEFUL, PF_ISSUED, N_PF };
static const char *const PF_NAMES[N_PF] = {"_access_index", "_window_useful", "_window_issued"};
enum { MV_CLOCK, MV_INSERTS, MV_HITS, MV_LOOKUPS, N_MV };
static const char *const MV_NAMES[N_MV] = {"_clock", "inserts", "hits", "lookups"};
enum { B_CKEY, B_KEY, B_TARGET, B_PRIO, B_RRPV, B_MKEY, B_LRU, B_NTGT, B_TGT, B_CTR, N_BUF };

typedef struct {
    int kind, loaded, off;
    PyObject *pf; /* borrowed: run()'s argument */
    int64_t tag_mask;
    /* Python state, re-fetched by tp_load (owned references) */
    PyObject *stats, *dense_of, *way_of, *line_of, *trainer, *sampler, *hints, *mvb,
        *slot_of, *last_line, *epoch_keys, *keys_by_pc;
    Py_buffer views[N_BUF];
    int held[N_BUF];
    int64_t *ckey, *key, *target, *m_key, *m_lru, *m_tgt;
    int8_t *prio, *rrpv, *m_ntgt, *m_ctr;
    int64_t n_sets, assoc, capacity, fill_rrpv, m_sets, m_assoc, m_cand, degree;
    int64_t trainer_size, sampler_size, interval, pat_thr, reuse_thr, period;
    int prophet_prio, filter, feat_ins, feat_repl, track;
    int64_t st[N_ST], pfc[N_PF], mv[N_MV], live;
    int64_t *out; /* the lines one access issues */
    Py_ssize_t out_cap;
} Temporal;

static int attr_int(PyObject *o, const char *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttrString(o, name);
    if (!v) return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int attr_truth(PyObject *o, const char *name, int *out)
{
    PyObject *v = PyObject_GetAttrString(o, name);
    if (!v) return -1;
    *out = PyObject_IsTrue(v);
    Py_DECREF(v);
    return *out;
}

static int attr_set(PyObject *o, const char *name, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc = v ? PyObject_SetAttrString(o, name, v) : -1;
    Py_XDECREF(v);
    return rc;
}

/* ``owner.name`` as an exact dict (or set), in ``*out``. */
static int attr_dict(PyObject *owner, const char *name, PyObject **out, int set)
{
    if (!(*out = PyObject_GetAttrString(owner, name))) return -1;
    if (set ? PySet_CheckExact(*out) : PyDict_CheckExact(*out)) return 0;
    PyErr_Format(PyExc_TypeError, "%s must be a plain %s", name, set ? "set" : "dict");
    return -1;
}

/* Writable view of the array ``owner.name``: ``n`` items of ``size`` bytes. */
static int tp_view(Temporal *t, int i, PyObject *owner, const char *name, int64_t n,
                   int size, void *out)
{
    PyObject *o = PyObject_GetAttrString(owner, name);
    if (!o) return -1;
    int rc = PyObject_GetBuffer(o, &t->views[i], PyBUF_WRITABLE);
    Py_DECREF(o);
    if (rc < 0) return -1;
    t->held[i] = 1;
    if (t->views[i].itemsize != size || t->views[i].len != n * size) {
        PyErr_Format(PyExc_ValueError, "%s: unexpected array layout", name);
        return -1;
    }
    *(void **)out = t->views[i].buf;
    return 0;
}

static void tp_release(Temporal *t)
{
    PyObject **objs[] = {&t->stats, &t->dense_of, &t->way_of, &t->line_of, &t->trainer,
                         &t->sampler, &t->hints, &t->mvb, &t->slot_of, &t->last_line,
                         &t->epoch_keys, &t->keys_by_pc};
    for (size_t i = 0; i < sizeof(objs) / sizeof(*objs); i++) Py_CLEAR(*objs[i]);
    for (int i = 0; i < N_BUF; i++)
        if (t->held[i]) {
            PyBuffer_Release(&t->views[i]);
            t->held[i] = 0;
        }
    t->loaded = 0;
}

/* Prophet's hint buffer as {pc: priority << 1 | insert}. */
static PyObject *tp_hints(PyObject *pf)
{
    PyObject *buffer = PyObject_GetAttrString(pf, "hint_buffer"), *entries = NULL, *out = NULL;
    if (buffer && attr_dict(buffer, "_entries", &entries, 0) == 0) out = PyDict_New();
    Py_ssize_t pos = 0;
    PyObject *pc, *hint;
    while (out && PyDict_Next(entries, &pos, &pc, &hint)) {
        int insert;
        int64_t priority;
        PyObject *v = NULL;
        if (attr_truth(hint, "insert", &insert) < 0 || attr_int(hint, "priority", &priority) < 0
            || !(v = PyLong_FromLongLong(priority << 1 | insert)) || PyDict_SetItem(out, pc, v) < 0)
            Py_CLEAR(out);
        Py_XDECREF(v);
    }
    Py_XDECREF(buffer);
    Py_XDECREF(entries);
    return out;
}

static int tp_load_mvb(Temporal *t)
{
    PyObject *m = t->mvb;
    int64_t n;
    if (attr_dict(m, "_slot_of", &t->slot_of, 0) < 0 || attr_int(m, "n_sets", &t->m_sets) < 0
        || attr_int(m, "assoc", &t->m_assoc) < 0
        || attr_int(m, "candidates_per_entry", &t->m_cand) < 0)
        return -1;
    n = t->m_sets * t->m_assoc;
    if (tp_view(t, B_MKEY, m, "_key", n, 8, &t->m_key) < 0
        || tp_view(t, B_LRU, m, "_lru", n, 8, &t->m_lru) < 0
        || tp_view(t, B_NTGT, m, "_ntgt", n, 1, &t->m_ntgt) < 0
        || tp_view(t, B_TGT, m, "_tgt", n * t->m_cand, 8, &t->m_tgt) < 0
        || tp_view(t, B_CTR, m, "_ctr", n * t->m_cand, 1, &t->m_ctr) < 0)
        return -1;
    for (int i = 0; i < N_MV; i++)
        if (attr_int(m, MV_NAMES[i], &t->mv[i]) < 0) return -1;
    return 0;
}

/* Fetch the prefetcher's state and counters (no-op on the Python path). */
static int tp_load(Temporal *t)
{
    if (!t->kind) return 0;
    PyObject *pf = t->pf, *table = PyObject_GetAttrString(pf, "table");
    int rc = -1;
    t->loaded = 1;
    if (!table || !(t->stats = PyObject_GetAttrString(table, "stats"))
        || attr_dict(table, "_dense_of", &t->dense_of, 0) < 0
        || attr_dict(table, "_way_of", &t->way_of, 0) < 0
        || !(t->line_of = PyObject_GetAttrString(table, "_line_of"))
        || attr_int(table, "n_sets", &t->n_sets) < 0 || attr_int(table, "assoc", &t->assoc) < 0
        || attr_int(table, "_srrip_fill_rrpv", &t->fill_rrpv) < 0
        || attr_int(table, "_live", &t->live) < 0
        || attr_truth(table, "prophet_priorities", &t->prophet_prio) < 0
        || attr_int(pf, "degree", &t->degree) < 0)
        goto done;
    if (!PyList_CheckExact(t->line_of)) {
        PyErr_SetString(PyExc_TypeError, "_line_of must be a plain list");
        goto done;
    }
    t->capacity = t->n_sets * t->assoc;
    if (tp_view(t, B_CKEY, table, "_ckey", t->capacity, 8, &t->ckey) < 0
        || tp_view(t, B_KEY, table, "_key", t->capacity, 8, &t->key) < 0
        || tp_view(t, B_TARGET, table, "_target", t->capacity, 8, &t->target) < 0
        || tp_view(t, B_PRIO, table, "_prio", t->capacity, 1, &t->prio) < 0
        || tp_view(t, B_RRPV, table, "_srrip_rrpv", t->capacity, 1, &t->rrpv) < 0)
        goto done;
    for (int i = 0; i < N_ST; i++)
        if (attr_int(t->stats, ST_NAMES[i], &t->st[i]) < 0) goto done;
    t->m_cand = 0;
    if (t->kind == TP_TRIAGE) {
        if (attr_dict(pf, "_last_line", &t->last_line, 0) < 0
            || attr_dict(pf, "_epoch_keys", &t->epoch_keys, 1) < 0
            || attr_dict(pf, "_inserted_keys_by_pc", &t->keys_by_pc, 0) < 0
            || attr_truth(pf, "track_inserts", &t->track) < 0)
            goto done;
    } else {
        if (attr_dict(pf, "_trainer", &t->trainer, 0) < 0
            || attr_dict(pf, "_sampler", &t->sampler, 0) < 0
            || attr_int(pf, "trainer_size", &t->trainer_size) < 0
            || attr_int(pf, "sampler_size", &t->sampler_size) < 0
            || attr_int(pf, "sample_interval", &t->interval) < 0
            || attr_int(pf, "pattern_threshold", &t->pat_thr) < 0
            || attr_int(pf, "reuse_threshold", &t->reuse_thr) < 0
            || attr_int(pf, "SAMPLED_INSERTION_PERIOD", &t->period) < 0
            || attr_truth(pf, "insertion_filter_enabled", &t->filter) < 0)
            goto done;
        if (!t->interval || !t->period) {
            PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
            goto done;
        }
        for (int i = 0; i < N_PF; i++)
            if (attr_int(pf, PF_NAMES[i], &t->pfc[i]) < 0) goto done;
    }
    if (t->kind == TP_PROPHET) {
        int64_t ways;
        int resizing, enabled;
        if (attr_int(pf, "initial_ways", &ways) < 0
            || attr_truth(pf, "_feat_resizing", &resizing) < 0
            || attr_truth(pf, "_feat_insertion", &t->feat_ins) < 0
            || attr_truth(pf, "_feat_replacement", &t->feat_repl) < 0
            || attr_truth(pf, "prophet_enabled", &enabled) < 0
            || (enabled && !(t->hints = tp_hints(pf)))
            || !(t->mvb = PyObject_GetAttrString(pf, "mvb")))
            goto done;
        t->off = ways == 0 && resizing; /* Equation 3 disabled the prefetcher */
        if (t->mvb == Py_None)
            Py_CLEAR(t->mvb);
        else if (tp_load_mvb(t) < 0)
            goto done;
    }
    Py_ssize_t cap = (t->degree > 0 ? t->degree : 0) * (1 + t->m_cand) + 1;
    if (cap > t->out_cap) {
        int64_t *out = realloc(t->out, cap * sizeof(int64_t));
        if (!out) {
            PyErr_NoMemory();
            goto done;
        }
        t->out = out;
        t->out_cap = cap;
    }
    rc = 0;
done:
    Py_XDECREF(table);
    return rc;
}

/* Write the counters back to the Python objects and drop every reference. */
static int tp_store(Temporal *t)
{
    if (!t->loaded) return 0;
    int rc = 0;
    for (int i = 0; i < N_ST && !rc; i++) rc = attr_set(t->stats, ST_NAMES[i], t->st[i]);
    if (!rc) {
        PyObject *table = PyObject_GetAttrString(t->pf, "table");
        rc = table ? attr_set(table, "_live", t->live) : -1;
        Py_XDECREF(table);
    }
    for (int i = 0; i < N_PF && !rc && t->kind != TP_TRIAGE; i++)
        rc = attr_set(t->pf, PF_NAMES[i], t->pfc[i]);
    for (int i = 0; i < N_MV && !rc && t->mvb; i++) rc = attr_set(t->mvb, MV_NAMES[i], t->mv[i]);
    tp_release(t);
    return rc;
}

/* Slot of a dict-held index value, bounds-checked against ``n``. */
static Py_ssize_t slot_value(PyObject *v, int64_t n)
{
    Py_ssize_t slot = PyLong_AsSsize_t(v);
    if (slot >= 0 && slot < n) return slot;
    if (!PyErr_Occurred()) PyErr_SetString(PyExc_IndexError, "slot out of range");
    return -2;
}

/* Metadata-table slot holding ``lo`` (a line as a Python int): -1 when
 * none, -2 on error.  MetadataTable.probe's two dict gets. */
static Py_ssize_t tp_slot(Temporal *t, PyObject *lo)
{
    PyObject *ck = PyDict_GetItemWithError(t->dense_of, lo);
    PyObject *s = ck ? PyDict_GetItemWithError(t->way_of, ck) : NULL;
    if (!s) return PyErr_Occurred() ? -2 : -1;
    return slot_value(s, t->capacity);
}

/* ``d.pop(next(iter(d)))``: FIFO eviction from an insertion-ordered dict. */
static int pop_first(PyObject *d)
{
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    if (!PyDict_Next(d, &pos, &key, &value)) return 0;
    Py_INCREF(key);
    int rc = PyDict_DelItem(d, key);
    Py_DECREF(key);
    return rc;
}

/* ``d[key] = value`` for an int value. */
static int set_int(PyObject *d, PyObject *key, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc = v ? PyDict_SetItem(d, key, v) : -1;
    Py_XDECREF(v);
    return rc;
}

/* MultiPathVictimBuffer._evict: lowest max-counter first, LRU tie-break. */
static Py_ssize_t mvb_evict(Temporal *t, Py_ssize_t base)
{
    Py_ssize_t victim = -1;
    int64_t best_ctr = -1, best_lru = -1;
    for (Py_ssize_t s = base; s < base + t->m_assoc; s++) {
        if (t->m_key[s] < 0) continue;
        int64_t mx = 0;
        for (Py_ssize_t i = s * t->m_cand; i < s * t->m_cand + t->m_ntgt[s]; i++)
            if (t->m_ctr[i] > mx) mx = t->m_ctr[i];
        if (victim < 0 || mx < best_ctr || (mx == best_ctr && t->m_lru[s] < best_lru)) {
            victim = s;
            best_ctr = mx;
            best_lru = t->m_lru[s];
        }
    }
    PyObject *key = PyLong_FromLongLong(t->m_key[victim]);
    int rc = key ? PyDict_DelItem(t->slot_of, key) : -1;
    Py_XDECREF(key);
    t->m_key[victim] = -1;
    return rc < 0 ? -1 : victim;
}

/* MultiPathVictimBuffer.insert (lines are non-negative, so C's modulo
 * is Python's). */
static int mvb_insert(Temporal *t, int64_t line, int64_t target, int priority)
{
    if (!t->mvb || priority <= 0) return 0;
    int64_t clock = ++t->mv[MV_CLOCK];
    PyObject *lo = PyLong_FromLongLong(line), *s;
    if (!lo) return -1;
    Py_ssize_t slot = -1;
    if ((s = PyDict_GetItemWithError(t->slot_of, lo))) {
        slot = slot_value(s, t->m_sets * t->m_assoc);
    } else if (!PyErr_Occurred()) {
        Py_ssize_t base = (line % t->m_sets) * t->m_assoc;
        for (Py_ssize_t w = base; w < base + t->m_assoc; w++)
            if (t->m_key[w] < 0) {
                slot = w;
                break;
            }
        if (slot < 0) slot = mvb_evict(t, base);
        if (slot >= 0) {
            t->m_key[slot] = line;
            t->m_ntgt[slot] = 0;
            if (set_int(t->slot_of, lo, slot) < 0) slot = -1;
        }
    }
    Py_DECREF(lo);
    if (slot < 0) return -1;
    t->m_lru[slot] = clock;
    Py_ssize_t base = slot * t->m_cand, n = t->m_ntgt[slot];
    for (Py_ssize_t i = base; i < base + n; i++)
        if (t->m_tgt[i] == target) return 0;
    if (n >= t->m_cand) {
        /* Displace the coldest stored target (first minimum). */
        Py_ssize_t ci = base;
        for (Py_ssize_t i = base + 1; i < base + n; i++)
            if (t->m_ctr[i] < t->m_ctr[ci]) ci = i;
        t->m_tgt[ci] = target;
        t->m_ctr[ci] = 0;
    } else {
        t->m_tgt[base + n] = target;
        t->m_ctr[base + n] = 0;
        t->m_ntgt[slot] = (int8_t)(n + 1);
    }
    t->mv[MV_INSERTS]++;
    return 0;
}

/* SRRIP victim within the set at ``base``: the first way with the largest
 * RRPV, among the lowest-priority ways under Prophet's priorities. */
static Py_ssize_t tp_victim(const Temporal *t, Py_ssize_t base)
{
    Py_ssize_t end = base + t->assoc, victim = base;
    int min_prio = t->prio[base], best = -1;
    if (t->prophet_prio)
        for (Py_ssize_t s = base + 1; s < end; s++)
            if (t->prio[s] < min_prio) min_prio = t->prio[s];
    for (Py_ssize_t s = base; s < end; s++)
        if ((!t->prophet_prio || t->prio[s] == min_prio) && t->rrpv[s] > best) {
            best = t->rrpv[s];
            victim = s;
        }
    return victim;
}

/* MetadataTable.insert_fast(line -> target) for the SRRIP table; the
 * displaced mapping goes to the MVB, if any.  ``lo`` is ``line`` as a
 * Python int. */
static int tp_insert(Temporal *t, int64_t line, PyObject *lo, int64_t target, int priority)
{
    PyObject *ck_o = PyDict_GetItemWithError(t->dense_of, lo), *s;
    int64_t ck;
    int rc = -1;
    if (ck_o) {
        Py_INCREF(ck_o);
        if ((ck = PyLong_AsLongLong(ck_o)) == -1 && PyErr_Occurred()) goto done;
    } else {
        /* First touch: the next structural index, keyed for this geometry. */
        Py_ssize_t idx = PyList_GET_SIZE(t->line_of);
        ck = ((idx / t->n_sets) & t->tag_mask) * t->n_sets + idx % t->n_sets;
        if (PyList_Append(t->line_of, lo) < 0 || !(ck_o = PyLong_FromLongLong(ck))
            || PyDict_SetItem(t->dense_of, lo, ck_o) < 0)
            goto done;
    }
    if ((s = PyDict_GetItemWithError(t->way_of, ck_o))) {
        /* Resident (possibly aliased) entry: overwrite in place. */
        Py_ssize_t slot = slot_value(s, t->capacity);
        if (slot < 0) goto done;
        int64_t old_target = t->target[slot];
        int old_prio = t->prio[slot];
        t->target[slot] = target;
        t->prio[slot] = (int8_t)priority;
        t->rrpv[slot] = 0;
        rc = 0;
        if (old_target != target) {
            t->st[ST_OVER]++;
            rc = mvb_insert(t, line, old_target, old_prio);
        }
        goto done;
    }
    if (PyErr_Occurred()) goto done;
    Py_ssize_t base = (ck % t->n_sets) * t->assoc, slot = -1;
    for (Py_ssize_t w = base; w < base + t->assoc; w++)
        if (t->ckey[w] < 0) {
            slot = w;
            break;
        }
    if (slot < 0) {
        slot = tp_victim(t, base);
        PyObject *old = PyLong_FromLongLong(t->ckey[slot]);
        int bad = !old || PyDict_DelItem(t->way_of, old) < 0
                  || mvb_insert(t, t->key[slot], t->target[slot], t->prio[slot]) < 0;
        Py_XDECREF(old);
        if (bad) goto done;
        t->st[ST_REPL]++;
        t->live--;
    }
    t->ckey[slot] = ck;
    t->key[slot] = line;
    t->target[slot] = target;
    t->prio[slot] = (int8_t)priority;
    t->rrpv[slot] = (int8_t)t->fill_rrpv;
    if (set_int(t->way_of, ck_o, slot) < 0) goto done;
    t->st[ST_INS]++;
    if (++t->live > t->st[ST_PEAK]) t->st[ST_PEAK] = t->live;
    rc = 0;
done:
    Py_XDECREF(ck_o);
    return rc;
}

/* The degree-d chain walk from ``line`` (``lo``), consulting the MVB at
 * every step when there is one.  Returns the number of lines in
 * ``t->out``, or -1. */
static Py_ssize_t tp_walk(Temporal *t, PyObject *lo)
{
    Py_ssize_t n = 0;
    PyObject *cursor = Py_NewRef(lo);
    for (int64_t d = 0; d < t->degree; d++) {
        t->st[ST_LOOKUPS]++;
        int64_t target = -1;
        Py_ssize_t slot = tp_slot(t, cursor);
        if (slot < -1) goto fail;
        if (slot >= 0) {
            t->st[ST_HITS]++;
            t->rrpv[slot] = 0;
            target = t->target[slot];
        }
        if (t->mvb) {
            t->mv[MV_LOOKUPS]++;
            PyObject *s = PyDict_GetItemWithError(t->slot_of, cursor);
            if (s) {
                /* MVB hit: touch LRU, serve the non-excluded targets. */
                Py_ssize_t m = slot_value(s, t->m_sets * t->m_assoc);
                if (m < 0 || t->m_ntgt[m] > t->m_cand) goto fail;
                t->m_lru[m] = ++t->mv[MV_CLOCK];
                int got = 0;
                for (Py_ssize_t i = m * t->m_cand; i < m * t->m_cand + t->m_ntgt[m]; i++) {
                    if (t->m_tgt[i] == target) continue;
                    if (t->m_ctr[i] < MVB_COUNTER_MAX) t->m_ctr[i]++;
                    t->out[n++] = t->m_tgt[i];
                    got = 1;
                }
                t->mv[MV_HITS] += got;
            } else if (PyErr_Occurred()) {
                goto fail;
            }
        }
        if (target < 0) break;
        t->out[n++] = target;
        if (d + 1 < t->degree) Py_SETREF(cursor, PyLong_FromLongLong(target));
        if (!cursor) return -1;
    }
    Py_DECREF(cursor);
    return n;
fail:
    Py_DECREF(cursor);
    return -1;
}

/* TriagePrefetcher.observe: every trained pair is inserted. */
static Py_ssize_t triage_step(Temporal *t, PyObject *pc, int64_t line, PyObject *lo)
{
    PyObject *last_o = PyDict_GetItemWithError(t->last_line, pc);
    if (last_o) {
        int64_t last = PyLong_AsLongLong(last_o);
        if (last == -1 && PyErr_Occurred()) return -1;
        if (last != line) {
            Py_INCREF(last_o);
            int bad = tp_insert(t, last, last_o, line, 0) < 0
                      || PySet_Add(t->epoch_keys, last_o) < 0;
            if (!bad && t->track) {
                /* _inserted_keys_by_pc.setdefault(pc, set()).add(last) */
                PyObject *keys = PyDict_GetItemWithError(t->keys_by_pc, pc);
                if (!keys && !PyErr_Occurred() && (keys = PySet_New(NULL))) {
                    bad = PyDict_SetItem(t->keys_by_pc, pc, keys) < 0;
                    Py_DECREF(keys);
                }
                bad = bad || !keys || PySet_Add(keys, last_o) < 0;
            }
            Py_DECREF(last_o);
            if (bad) return -1;
        }
    } else if (PyErr_Occurred()) {
        return -1;
    }
    if (PyDict_SetItem(t->last_line, pc, lo) < 0) return -1;
    return tp_walk(t, lo);
}

/* TriangelPrefetcher.observe, and Prophet's fused pass on top of it
 * (hint consult, priorities, MVB).  -2: hatch, nothing changed yet. */
static Py_ssize_t triangel_step(Temporal *t, PyObject *pc, int64_t line, PyObject *lo)
{
    int64_t last = -1, blocked = 0, pat = 8, reuse = 8, hint = -1;
    PyObject *packed = PyDict_GetItemWithError(t->trainer, pc), *last_o = NULL, *v;
    if (packed) {
        int overflow;
        long long p = PyLong_AsLongLongAndOverflow(packed, &overflow);
        if (p == -1 && PyErr_Occurred()) return -1;
        if (overflow || p < 0) return -2; /* trained on a hatched line */
        last = (p >> T_LAST_SHIFT) - 1;
        blocked = (p >> 8) & T_BLOCKED_MASK;
        pat = (p >> 4) & 0xF;
        reuse = p & 0xF;
    } else if (PyErr_Occurred()
               || (PyDict_GET_SIZE(t->trainer) >= t->trainer_size && pop_first(t->trainer) < 0)) {
        return -1;
    }
    int64_t ai = ++t->pfc[PF_AI];
    int trains = last >= 0 && last != line, allow;
    if (trains) {
        /* PatternConf: did the recorded pattern predict this access? */
        if (!(last_o = PyLong_FromLongLong(last))) return -1;
        Py_ssize_t slot = tp_slot(t, last_o);
        if (slot < -1) goto fail;
        if (slot >= 0) {
            if (t->target[slot] == line) {
                if (pat < CONF_MAX) pat++;
            } else if (pat > 0) {
                pat--;
            }
        }
    }
    /* ReuseConf: does the sampled reuse distance fit the table? */
    if ((v = PyDict_GetItemWithError(t->sampler, lo))) {
        int64_t seen_at = PyLong_AsLongLong(v);
        if (seen_at == -1 && PyErr_Occurred()) goto fail;
        if (ai - seen_at <= t->capacity) {
            if (reuse < CONF_MAX) reuse++;
        } else if (reuse > 0) {
            reuse--;
        }
        if (set_int(t->sampler, lo, ai) < 0) goto fail;
    } else if (PyErr_Occurred()) {
        goto fail;
    } else if (ai % t->interval == 0) {
        if ((PyDict_GET_SIZE(t->sampler) >= t->sampler_size && pop_first(t->sampler) < 0)
            || set_int(t->sampler, lo, ai) < 0)
            goto fail;
    }
    /* Insertion decision: Prophet's hint, else the runtime policy. */
    if (t->hints && (v = PyDict_GetItemWithError(t->hints, pc))) hint = PyLong_AsLongLong(v);
    if (PyErr_Occurred()) goto fail;
    if (hint >= 0 && t->feat_ins) {
        allow = hint & 1;
    } else if (!t->filter || (pat >= t->pat_thr && reuse >= t->reuse_thr)) {
        allow = 1;
    } else {
        blocked = (blocked + 1) & T_BLOCKED_MASK;
        allow = blocked % t->period == 0;
    }
    if (trains && allow) {
        int priority = t->kind != TP_PROPHET ? 0
                       : hint >= 0 && t->feat_repl ? (int)(hint >> 1) : RUNTIME_PRIORITY;
        if (tp_insert(t, last, last_o, line, priority) < 0) goto fail;
    }
    Py_CLEAR(last_o);
    if (set_int(t->trainer, pc, (line + 1) << T_LAST_SHIFT | blocked << 8 | pat << 4 | reuse) < 0)
        return -1;
    return allow ? tp_walk(t, lo) : 0;
fail:
    Py_XDECREF(last_o);
    return -1;
}

/* ------------------------------------------------------------------ */
/* the kernel                                                          */
/* ------------------------------------------------------------------ */
typedef struct {
    Cache l1, l2, l3;
    int l3_data_ways, meta_ways, max_meta_ways;
    double l1_lat, l1l2_lat, l2_lat, l3_lat;

    /* L2 MSHR file: unordered entries, at most ``m_cap`` of them. */
    Py_ssize_t m_cap, m_n;
    int64_t *m_line, *m_trigger;
    double *m_ready;
    uint8_t *m_is_pf, *m_consumed, *m_src;

    /* Prefetch overflow queue: ring of (line, trigger pc), drop-oldest. */
    Py_ssize_t q_cap, q_head, q_n;
    int64_t *q_line, *q_trigger;

    double d_service, d_access, d_busy;
    int64_t d_reads, d_writes, d_md_reads, d_md_writes;

    /* Fully-associative LRU TLB over pages (entries == 0: disabled). */
    Py_ssize_t t_entries, t_used;
    int64_t *t_pages, *t_stamp, t_clock, t_last_page;
    double t_walk;
    int64_t lines_per_page;
    int cross_page_ok;

    /* Inline stride prefetcher (degree 0: not the stride kind). */
    int s_degree;
    Py_ssize_t s_cap, s_head, s_n;
    int64_t *s_pc, *s_last, *s_stride, *s_conf;
    IdxMap s_idx;

    int64_t l2_issued, l2_useful, l1_issued, l1_useful;
    CountMap issued_by_pc, useful_by_pc, miss_by_pc;

    /* Python side: the L2 prefetcher's callables (re-fetched after every
     * resize), the L1 prefetcher's observe (generic kind only), and the
     * fixed helpers. */
    int null_l1, null_l2, offchip;
    PyObject *observe_fast, *observe, *note_useful, *note_issued, *l1_observe;
    PyObject *drain, *access_info, *desired, *resize;

    /* The native temporal-prefetcher step (kind TP_PY: none). */
    Temporal tp;
} Kernel;

static int issue_line(Kernel *k, int64_t line, int64_t trigger, double cycle);
static int issue_lines(Kernel *k, PyObject *lines, int64_t trigger, double cycle);

static PyObject *call_ll(PyObject *fn, int64_t a, int64_t b)
{
    PyObject *args[2] = {PyLong_FromLongLong(a), PyLong_FromLongLong(b)};
    PyObject *out = NULL;
    if (args[0] && args[1]) out = PyObject_Vectorcall(fn, args, 2, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    return out;
}

static int call_ll_void(PyObject *fn, int64_t a, int64_t b)
{
    PyObject *out = call_ll(fn, a, b);
    Py_XDECREF(out);
    return out ? 0 : -1;
}

/* Take the prefetcher callables from ``fns``: (observe_fast or None,
 * observe, note_useful, note_issued, l1_observe). */
static int bind(Kernel *k, PyObject *fns)
{
    PyObject *fast, *obs, *useful, *issued, *l1obs;
    if (!PyArg_ParseTuple(fns, "OOOOO", &fast, &obs, &useful, &issued, &l1obs)) return -1;
    Py_XSETREF(k->observe_fast, fast == Py_None ? NULL : Py_NewRef(fast));
    Py_XSETREF(k->observe, Py_NewRef(obs));
    Py_XSETREF(k->note_useful, Py_NewRef(useful));
    Py_XSETREF(k->note_issued, Py_NewRef(issued));
    Py_XSETREF(k->l1_observe, Py_NewRef(l1obs));
    return 0;
}

/* --- MSHR ----------------------------------------------------------- */
static inline Py_ssize_t mshr_find(const Kernel *k, int64_t line)
{
    for (Py_ssize_t i = 0; i < k->m_n; i++)
        if (k->m_line[i] == line) return i;
    return -1;
}

static void mshr_sweep(Kernel *k, double cycle)
{
    Py_ssize_t j = 0;
    for (Py_ssize_t i = 0; i < k->m_n; i++) {
        if (k->m_ready[i] <= cycle) continue;
        k->m_line[j] = k->m_line[i];
        k->m_ready[j] = k->m_ready[i];
        k->m_is_pf[j] = k->m_is_pf[i];
        k->m_trigger[j] = k->m_trigger[i];
        k->m_consumed[j] = k->m_consumed[i];
        k->m_src[j] = k->m_src[i];
        j++;
    }
    k->m_n = j;
}

static inline int mshr_is_full(Kernel *k, double cycle)
{
    if (k->m_n < k->m_cap) return 0;
    mshr_sweep(k, cycle);
    return k->m_n >= k->m_cap;
}

/* Allocate (or overwrite a completed entry) under the capacity rules:
 * sweep lazily at capacity, drop the request when still full. */
static void mshr_allocate(Kernel *k, int64_t line, double ready, int is_pf,
                          int64_t trigger, int src, double cycle)
{
    if (k->m_n >= k->m_cap) {
        mshr_sweep(k, cycle);
        if (k->m_n >= k->m_cap) return;
    }
    Py_ssize_t i = mshr_find(k, line);
    if (i < 0) i = k->m_n++;
    k->m_line[i] = line;
    k->m_ready[i] = ready;
    k->m_is_pf[i] = (uint8_t)is_pf;
    k->m_trigger[i] = trigger;
    k->m_consumed[i] = 0;
    k->m_src[i] = (uint8_t)src;
}

/* Append to the overflow queue; a full queue drops its oldest entry. */
static inline void queue_push(Kernel *k, int64_t line, int64_t trigger)
{
    if (k->q_n == k->q_cap) {
        k->q_head = (k->q_head + 1) % k->q_cap;
        k->q_n--;
    }
    Py_ssize_t tail = (k->q_head + k->q_n++) % k->q_cap;
    k->q_line[tail] = line;
    k->q_trigger[tail] = trigger;
}

/* --- DRAM ----------------------------------------------------------- */
/* Occupy the channel from ``cycle``; returns the queueing delay. */
static inline double dram_serve(Kernel *k, double cycle)
{
    double start = cycle > k->d_busy ? cycle : k->d_busy;
    k->d_busy = start + k->d_service;
    return start - cycle;
}

/* L3 probe for a prefetch; returns the fill's ready cycle. */
static inline double prefetch_source(Kernel *k, int64_t line, double cycle)
{
    Py_ssize_t i3 = lookup(&k->l3, line);
    if (i3 >= 0) {
        k->l3.rrpv[i3] = 0;
        return cycle + k->l3_lat;
    }
    k->d_reads++;
    double delay = dram_serve(k, cycle);
    return cycle + k->l3_lat + k->d_access + delay;
}

/* --- fills ---------------------------------------------------------- */
/* Fused L2 fill -> L3 spill of the L2 victim into the LLC's data ways. */
static void fill_l2_spill(Kernel *k, int64_t line, double ready, uint8_t flags,
                          int64_t trigger)
{
    Cache *l2 = &k->l2, *l3 = &k->l3;
    if (lookup(l2, line) >= 0) return;
    int64_t victim;
    Py_ssize_t idx = plru_slot(l2, line, &victim);
    l2->tags[idx] = line;
    l2->flags[idx] = flags;
    l2->ready[idx] = ready;
    l2->trigger[idx] = trigger;
    plru_touch(l2, idx);
    if (victim < 0 || lookup(l3, victim) >= 0) return;
    Py_ssize_t s3 = set_of(l3, victim), b3 = s3 * l3->assoc;
    int w3;
    if (l3->counts[s3] < k->l3_data_ways) {
        w3 = free_way(l3, b3, k->l3_data_ways);
        l3->counts[s3]++;
    } else {
        /* SRRIP victim: the first way holding the maximum RRPV. */
        w3 = 0;
        for (int w = 1; w < k->l3_data_ways; w++)
            if (l3->rrpv[b3 + w] > l3->rrpv[b3 + w3]) w3 = w;
    }
    l3->tags[b3 + w3] = victim;
    l3->rrpv[b3 + w3] = RRPV_MAX - 1;
}

/* Demand fill of L1: the caller has just missed L1, so no resident check. */
static inline void fill_l1(Kernel *k, int64_t line, uint8_t flags)
{
    int64_t victim;
    Py_ssize_t idx = plru_slot(&k->l1, line, &victim);
    k->l1.tags[idx] = line;
    k->l1.flags[idx] = flags;
    plru_touch(&k->l1, idx);
}

/* --- L2 prefetcher dispatch ---------------------------------------- */
/* The prefetcher's Python observe: ``observe_fast`` when it has one, else
 * ``observe(L2AccessInfo)`` (plus the off-chip metadata drain). */
static int observe_py(Kernel *k, int64_t pc, int64_t line, double cycle, int l2_hit,
                      int from_l1_pf)
{
    if (k->observe_fast) {
        PyObject *lines = call_ll(k->observe_fast, pc, line);
        if (!lines) return -1;
        int truth = PyObject_IsTrue(lines);
        int rc = truth < 0 ? -1 : truth ? issue_lines(k, lines, pc, cycle) : 0;
        Py_DECREF(lines);
        return rc;
    }
    PyObject *args[5] = {PyLong_FromLongLong(pc), PyLong_FromLongLong(line),
                         PyFloat_FromDouble(cycle), Py_NewRef(l2_hit ? Py_True : Py_False),
                         Py_NewRef(from_l1_pf ? Py_True : Py_False)};
    PyObject *info = NULL, *reqs = NULL;
    int rc = -1;
    if (args[0] && args[1] && args[2]) info = PyObject_Vectorcall(k->access_info, args, 5, NULL);
    for (int i = 0; i < 5; i++) Py_XDECREF(args[i]);
    if (!info) return -1;
    reqs = PyObject_CallOneArg(k->observe, info);
    Py_DECREF(info);
    if (!reqs) return -1;
    if (k->offchip) {
        long long reads, writes;
        PyObject *traffic = PyObject_CallNoArgs(k->drain);
        if (!traffic) goto done;
        int ok = PyArg_ParseTuple(traffic, "LL", &reads, &writes);
        Py_DECREF(traffic);
        if (!ok) goto done;
        for (long long i = 0; i < reads; i++) {
            k->d_reads++;
            k->d_md_reads++;
            dram_serve(k, cycle);
        }
        for (long long i = 0; i < writes; i++) {
            k->d_writes++;
            k->d_md_writes++;
            dram_serve(k, cycle);
        }
    }
    int truth = PyObject_IsTrue(reqs);
    if (truth <= 0) {
        rc = truth;
        goto done;
    }
    PyObject *it = PyObject_GetIter(reqs), *req;
    if (!it) goto done;
    rc = 0;
    while (rc == 0 && (req = PyIter_Next(it))) {
        PyObject *ln = PyObject_GetAttr(req, str_line);
        PyObject *tpc = ln ? PyObject_GetAttr(req, str_trigger_pc) : NULL;
        Py_DECREF(req);
        long long l = ln ? PyLong_AsLongLong(ln) : -1;
        long long t = tpc ? PyLong_AsLongLong(tpc) : -1;
        Py_XDECREF(ln);
        Py_XDECREF(tpc);
        if (PyErr_Occurred()) {
            rc = -1;
        } else if (mshr_is_full(k, cycle)) {
            queue_push(k, l, t);
        } else {
            rc = issue_line(k, l, t, cycle);
        }
    }
    Py_DECREF(it);
    if (rc == 0 && PyErr_Occurred()) rc = -1;
done:
    Py_DECREF(reqs);
    return rc;
}

/* One L2 access through the native step: train, walk, issue.  Returns 0,
 * -1 on error, or TP_HATCH when the Python observe must run it. */
static int tp_observe(Kernel *k, int64_t pc, int64_t line, double cycle)
{
    Temporal *t = &k->tp;
    if (t->off) return 0;
    if (line < 0 || line + 1 >= T_LINE_LIMIT) return TP_HATCH;
    PyObject *pc_o = PyLong_FromLongLong(pc), *lo = PyLong_FromLongLong(line);
    Py_ssize_t n = -1;
    if (pc_o && lo)
        n = t->kind == TP_TRIAGE ? triage_step(t, pc_o, line, lo) : triangel_step(t, pc_o, line, lo);
    Py_XDECREF(pc_o);
    Py_XDECREF(lo);
    if (n == -2) return TP_HATCH;
    for (Py_ssize_t i = 0; i < n; i++)
        if (issue_line(k, t->out[i], pc, cycle) < 0) return -1;
    return n < 0 ? -1 : 0;
}

static int observe_l2(Kernel *k, int64_t pc, int64_t line, double cycle, int l2_hit,
                      int from_l1_pf)
{
    if (k->null_l2) return 0;
    if (!k->tp.kind) return observe_py(k, pc, line, cycle, l2_hit, from_l1_pf);
    int rc = tp_observe(k, pc, line, cycle);
    if (rc != TP_HATCH) return rc;
    /* The hatch: hand the counters to the Python observe for this access. */
    if (tp_store(&k->tp) < 0) return -1;
    rc = observe_py(k, pc, line, cycle, l2_hit, from_l1_pf);
    return rc < 0 || tp_load(&k->tp) < 0 ? -1 : 0;
}

/* Issue one temporal-prefetcher request (a plain line number). */
static int issue_line(Kernel *k, int64_t line, int64_t trigger, double cycle)
{
    if (k->m_n >= k->m_cap && mshr_is_full(k, cycle)) {
        queue_push(k, line, trigger);
        return 0;
    }
    if (line < 0 || lookup(&k->l2, line) >= 0) return 0;
    Py_ssize_t m = mshr_find(k, line);
    if (m >= 0 && k->m_ready[m] > cycle) return 0;
    double ready = prefetch_source(k, line, cycle);
    mshr_allocate(k, line, ready, 1, trigger, PF_L2, cycle);
    fill_l2_spill(k, line, ready, FILL_PF_L2, trigger);
    k->l2_issued++;
    if (cm_incr(&k->issued_by_pc, trigger) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    if (k->tp.loaded) { /* note_issued: Triangel's window counter */
        k->tp.pfc[PF_ISSUED] += k->tp.kind != TP_TRIAGE;
        return 0;
    }
    return call_ll_void(k->note_issued, trigger, line);
}

static int issue_lines(Kernel *k, PyObject *lines, int64_t trigger, double cycle)
{
    PyObject *it = PyObject_GetIter(lines), *item;
    if (!it) return -1;
    int rc = 0;
    while (rc == 0 && (item = PyIter_Next(it))) {
        long long line = PyLong_AsLongLong(item);
        Py_DECREF(item);
        rc = line == -1 && PyErr_Occurred() ? -1 : issue_line(k, line, trigger, cycle);
    }
    Py_DECREF(it);
    return rc == 0 && PyErr_Occurred() ? -1 : rc;
}

static int drain_queue(Kernel *k, double cycle)
{
    while (k->q_n && !mshr_is_full(k, cycle)) {
        int64_t line = k->q_line[k->q_head], trigger = k->q_trigger[k->q_head];
        k->q_head = (k->q_head + 1) % k->q_cap;
        k->q_n--;
        if (issue_line(k, line, trigger, cycle) < 0) return -1;
    }
    return 0;
}

/* Credit a consumed prefetch to its source prefetcher. */
static inline int consume(Kernel *k, int src, int64_t trigger, int64_t line)
{
    if (src == PF_L2) {
        k->l2_useful++;
        if (cm_incr(&k->useful_by_pc, trigger) < 0) {
            PyErr_NoMemory();
            return -1;
        }
        if (k->tp.loaded) { /* note_useful: Triangel's window counter */
            k->tp.pfc[PF_USEFUL] += k->tp.kind != TP_TRIAGE;
            return 0;
        }
        return call_ll_void(k->note_useful, trigger, line);
    }
    if (src == PF_L1) k->l1_useful++;
    return 0;
}

/* --- L1 prefetch ---------------------------------------------------- */
static int issue_l1(Kernel *k, int64_t pc, int64_t line, double cycle)
{
    Cache *l2 = &k->l2;
    if (lookup(&k->l1, line) >= 0) return 0;
    Py_ssize_t i2 = lookup(l2, line);
    if (i2 >= 0) {
        plru_touch(l2, i2);
        if ((l2->flags[i2] & F_PF) && !(l2->flags[i2] & F_USED)) l2->flags[i2] |= F_USED;
        if (observe_l2(k, pc, line, cycle, 1, 1) < 0) return -1;
    } else {
        if (mshr_is_full(k, cycle)) return 0;
        Py_ssize_t m = mshr_find(k, line);
        if (m >= 0 && k->m_ready[m] > cycle) return 0;
        double ready = prefetch_source(k, line, cycle);
        mshr_allocate(k, line, ready, 1, pc, PF_L1, cycle);
        /* L1-prefetch L2 fill: the victim is dropped, not spilled. */
        int64_t victim;
        i2 = plru_slot(l2, line, &victim);
        l2->tags[i2] = line;
        l2->flags[i2] = FILL_PF_L1;
        l2->ready[i2] = ready;
        l2->trigger[i2] = pc;
        plru_touch(l2, i2);
        if (observe_l2(k, pc, line, cycle, 0, 1) < 0) return -1;
    }
    fill_l1(k, line, FILL_PF_L1);
    k->l1_issued++;
    return 0;
}

static inline int page_ok(const Kernel *k, int64_t line, int64_t target)
{
    return k->cross_page_ok || line / k->lines_per_page == target / k->lines_per_page;
}

/* Inline StridePrefetcher.observe: train, then issue the degree run. */
static int stride_observe(Kernel *k, int64_t pc, int64_t line, double cycle)
{
    size_t pos = im_probe(&k->s_idx, pc);
    int32_t e = k->s_idx.slots[pos] - 1;
    if (e < 0) {
        /* New PC: evict the oldest entry when full (dict FIFO order). */
        if (k->s_n >= k->s_cap) {
            e = (int32_t)k->s_head;
            im_delete(&k->s_idx, k->s_pc[e]);
            k->s_head = (k->s_head + 1) % k->s_cap;
            k->s_n--;
            pos = im_probe(&k->s_idx, pc);
        }
        e = (int32_t)((k->s_head + k->s_n++) % k->s_cap);
        k->s_pc[e] = pc;
        k->s_last[e] = line;
        k->s_stride[e] = 0;
        k->s_conf[e] = 0;
        k->s_idx.slots[pos] = e + 1;
        return 0;
    }
    int64_t stride = k->s_stride[e], conf = k->s_conf[e];
    int64_t new_stride = line - k->s_last[e];
    if (new_stride == stride && stride != 0) {
        if (conf < 3) conf++;
    } else {
        conf = conf > 0 ? conf - 1 : 0;
        if (conf == 0) stride = new_stride;
    }
    k->s_last[e] = line;
    k->s_stride[e] = stride;
    k->s_conf[e] = conf;
    if (conf >= 2 && stride != 0) {
        int64_t target = line;
        for (int d = 0; d < k->s_degree; d++) {
            target += stride;
            if (target < 0 || !page_ok(k, line, target)) continue;
            if (issue_l1(k, pc, target, cycle) < 0) return -1;
        }
    }
    return 0;
}

static int l1_observe_generic(Kernel *k, int64_t pc, int64_t line, double cycle)
{
    PyObject *reqs = call_ll(k->l1_observe, pc, line);
    if (!reqs) return -1;
    int truth = PyObject_IsTrue(reqs), rc = truth < 0 ? -1 : 0;
    PyObject *it = truth > 0 ? PyObject_GetIter(reqs) : NULL, *item;
    if (truth > 0 && !it) rc = -1;
    while (it && rc == 0 && (item = PyIter_Next(it))) {
        long long target = PyLong_AsLongLong(item);
        Py_DECREF(item);
        if (target == -1 && PyErr_Occurred()) rc = -1;
        else if (target != line && target >= 0 && page_ok(k, line, target))
            rc = issue_l1(k, pc, target, cycle);
    }
    Py_XDECREF(it);
    Py_DECREF(reqs);
    return rc == 0 && PyErr_Occurred() ? -1 : rc;
}

/* --- one demand access --------------------------------------------- */
static int demand(Kernel *k, int64_t pc, int64_t line, double cycle, double *lat_out,
                  int *level_out)
{
    Cache *l1 = &k->l1, *l2 = &k->l2;
    double latency;
    int level;
    if (k->q_n && drain_queue(k, cycle) < 0) return -1;

    Py_ssize_t idx = lookup(l1, line);
    if (idx >= 0) {
        plru_touch(l1, idx);
        uint8_t f = l1->flags[idx];
        if ((f & F_PF) && !(f & F_USED)) {
            l1->flags[idx] = f | F_USED;
            k->l1_useful++;
        }
        latency = k->l1_lat;
        level = LV_L1;
    } else {
        latency = k->l1l2_lat;
        idx = lookup(l2, line);
        if (idx >= 0) {
            plru_touch(l2, idx);
            uint8_t f = l2->flags[idx];
            double ready = l2->ready[idx];
            if (ready > cycle + k->l2_lat && ready - cycle > latency) latency = ready - cycle;
            if ((f & F_PF) && !(f & F_USED)) {
                l2->flags[idx] = f | F_USED;
                if (consume(k, f >> SRC_SHIFT, l2->trigger[idx], line) < 0) return -1;
            }
            fill_l1(k, line, 0);
            if (observe_l2(k, pc, line, cycle, 1, 0) < 0) return -1;
            level = LV_L2;
        } else {
            /* Merge with an in-flight miss/prefetch to the same line. */
            Py_ssize_t m = mshr_find(k, line);
            if (m >= 0 && k->m_ready[m] > cycle) {
                if (k->m_ready[m] - cycle > latency) latency = k->m_ready[m] - cycle;
                if (k->m_is_pf[m] && !k->m_consumed[m]) {
                    k->m_consumed[m] = 1;
                    if (consume(k, k->m_src[m], k->m_trigger[m], line) < 0) return -1;
                }
                level = LV_L3;
            } else {
                latency += k->l3_lat;
                Py_ssize_t i3 = lookup(&k->l3, line);
                if (i3 >= 0) {
                    k->l3.rrpv[i3] = 0;
                    level = LV_L3;
                } else {
                    k->d_reads++;
                    latency += k->d_access + dram_serve(k, cycle);
                    level = LV_DRAM;
                }
                mshr_allocate(k, line, cycle + latency, 0, -1, 0, cycle);
            }
            fill_l2_spill(k, line, cycle + latency, 0, -1);
            fill_l1(k, line, 0);
            if (observe_l2(k, pc, line, cycle, 0, 0) < 0) return -1;
        }
    }

    if (k->t_entries) {
        int64_t page = line / k->lines_per_page;
        if (page != k->t_last_page) {
            Py_ssize_t slot = 0;
            while (slot < k->t_used && k->t_pages[slot] != page) slot++;
            if (slot == k->t_used) {
                if (k->t_used < k->t_entries) {
                    k->t_used++;
                } else {
                    slot = 0; /* LRU: the first slot with the oldest stamp */
                    for (Py_ssize_t s = 1; s < k->t_entries; s++)
                        if (k->t_stamp[s] < k->t_stamp[slot]) slot = s;
                }
                k->t_pages[slot] = page;
                if (k->t_walk) latency += k->t_walk;
            }
            k->t_stamp[slot] = ++k->t_clock;
            k->t_last_page = page;
        }
    }

    if (k->s_degree) {
        if (stride_observe(k, pc, line, cycle) < 0) return -1;
    } else if (!k->null_l1) {
        if (l1_observe_generic(k, pc, line, cycle) < 0) return -1;
    }
    *lat_out = latency;
    *level_out = level;
    return 0;
}

/* Resize poll: ask the prefetcher, apply the LLC re-split here and the
 * Python side (table resize, hierarchy bookkeeping) through ``resize``,
 * then rebind the prefetcher callables. */
static int poll_resize_py(Kernel *k)
{
    PyObject *cur = PyLong_FromLong(k->meta_ways);
    if (!cur) return -1;
    PyObject *want = PyObject_CallOneArg(k->desired, cur);
    Py_DECREF(cur);
    if (!want) return -1;
    if (want == Py_None) {
        Py_DECREF(want);
        return 0;
    }
    long desired = PyLong_AsLong(want);
    Py_DECREF(want);
    if (desired == -1 && PyErr_Occurred()) return -1;
    if (desired == k->meta_ways) return 0;
    int ways = desired < 0 ? 0 : desired > k->max_meta_ways ? k->max_meta_ways : (int)desired;
    int data_ways = k->l3.assoc - ways;
    Cache *l3 = &k->l3;
    for (Py_ssize_t s = 0; s < l3->n_sets; s++) {
        for (int w = data_ways; w < k->l3_data_ways; w++) {
            Py_ssize_t i = s * l3->assoc + w;
            if (l3->tags[i] != -1) {
                l3->tags[i] = -1;
                l3->counts[s]--;
            }
        }
    }
    k->l3_data_ways = data_ways;
    k->meta_ways = ways;
    PyObject *fns = PyObject_CallFunction(k->resize, "i", ways);
    if (!fns) return -1;
    int rc = bind(k, fns);
    Py_DECREF(fns);
    return rc;
}

/* The poll hands the native step's counters to Python and re-fetches its
 * state afterwards (the rebind rule). */
static int poll_resize(Kernel *k)
{
    if (tp_store(&k->tp) < 0) return -1;
    int rc = poll_resize_py(k);
    return rc < 0 || tp_load(&k->tp) < 0 ? -1 : 0;
}

static void kernel_free(Kernel *k)
{
    cache_free(&k->l1);
    cache_free(&k->l2);
    cache_free(&k->l3);
    free(k->m_line);
    free(k->m_trigger);
    free(k->m_ready);
    free(k->m_is_pf);
    free(k->m_consumed);
    free(k->m_src);
    free(k->q_line);
    free(k->q_trigger);
    free(k->t_pages);
    free(k->t_stamp);
    free(k->s_pc);
    free(k->s_last);
    free(k->s_stride);
    free(k->s_conf);
    free(k->s_idx.slots);
    cm_free(&k->issued_by_pc);
    cm_free(&k->useful_by_pc);
    cm_free(&k->miss_by_pc);
    Py_XDECREF(k->observe_fast);
    Py_XDECREF(k->observe);
    Py_XDECREF(k->note_useful);
    Py_XDECREF(k->note_issued);
    Py_XDECREF(k->l1_observe);
    tp_release(&k->tp);
    free(k->tp.out);
}

static int get_column(PyObject *obj, Py_buffer *view, Py_ssize_t n)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_STRIDED_RO) < 0) return -1;
    if (view->ndim != 1 || view->itemsize != 8 || view->shape[0] != n) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "trace columns must be 1-D int64 of equal length");
        return -1;
    }
    return 0;
}

#define COL(v, i) (*(const int64_t *)((const char *)(v).buf + (i) * (v).strides[0]))

PyDoc_STRVAR(run_doc,
"run(pcs, lines, gaps, warmup_records, resize_window, geometry, timing,\n"
"    modes, fns, desired, resize, drain, access_info, (step, pf, tag_mask))\n"
"--\n\n"
"Drive every trace record through the hierarchy; see repro.sim.engine.");

static PyObject *run(PyObject *self, PyObject *args)
{
    PyObject *pcs_o, *lines_o, *gaps_o, *fns;
    Py_ssize_t n, warmup, l1_sets, l2_sets, l3_sets, m_cap, q_cap, t_entries, s_cap;
    long long resize_window, lines_per_page;
    int l1_assoc, l2_assoc, l3_assoc, l3_data_ways, meta_ways, max_meta_ways;
    int cross_page_ok, s_degree, issue_width, mlp;
    double l1_lat, l2_lat, l3_lat, d_service, d_access, t_walk, hide;
    Kernel kern;
    Kernel *k = &kern;
    memset(k, 0, sizeof(*k));
    if (!PyArg_ParseTuple(
            args, "OOOnL(nininiiiidddddnnndLpin)(idi)(ppp)OOOOO(iOL)", &pcs_o, &lines_o, &gaps_o,
            &warmup, &resize_window, &l1_sets, &l1_assoc, &l2_sets, &l2_assoc, &l3_sets,
            &l3_assoc, &l3_data_ways, &meta_ways, &max_meta_ways, &l1_lat, &l2_lat, &l3_lat,
            &d_service, &d_access, &m_cap, &q_cap, &t_entries, &t_walk, &lines_per_page,
            &cross_page_ok, &s_degree, &s_cap, &issue_width, &hide, &mlp, &k->null_l1,
            &k->null_l2, &k->offchip, &fns, &k->desired, &k->resize, &k->drain,
            &k->access_info, &k->tp.kind, &k->tp.pf, &k->tp.tag_mask))
        return NULL;

    Py_buffer pcs, lines, gaps;
    n = PyObject_Length(pcs_o);
    if (n < 0 || get_column(pcs_o, &pcs, n) < 0) return NULL;
    if (get_column(lines_o, &lines, n) < 0) {
        PyBuffer_Release(&pcs);
        return NULL;
    }
    if (get_column(gaps_o, &gaps, n) < 0) {
        PyBuffer_Release(&pcs);
        PyBuffer_Release(&lines);
        return NULL;
    }

    PyObject *result = NULL;
    k->l3_data_ways = l3_data_ways;
    k->meta_ways = meta_ways;
    k->max_meta_ways = max_meta_ways;
    k->l1_lat = l1_lat;
    k->l2_lat = l2_lat;
    k->l3_lat = l3_lat;
    k->l1l2_lat = l1_lat + l2_lat;
    k->m_cap = m_cap;
    k->q_cap = q_cap;
    k->d_service = d_service;
    k->d_access = d_access;
    k->t_entries = t_entries;
    k->t_walk = t_walk;
    k->t_last_page = -1;
    k->lines_per_page = lines_per_page;
    k->cross_page_ok = cross_page_ok;
    k->s_degree = s_degree;
    k->s_cap = s_cap;
    if (cache_init(&k->l1, l1_sets, l1_assoc, 0, 0) < 0
        || cache_init(&k->l2, l2_sets, l2_assoc, 1, 0) < 0
        || cache_init(&k->l3, l3_sets, l3_assoc, 0, 1) < 0
        || !(k->m_line = malloc(m_cap * sizeof(int64_t)))
        || !(k->m_trigger = malloc(m_cap * sizeof(int64_t)))
        || !(k->m_ready = malloc(m_cap * sizeof(double)))
        || !(k->m_is_pf = malloc(m_cap)) || !(k->m_consumed = malloc(m_cap))
        || !(k->m_src = malloc(m_cap))
        || !(k->q_line = malloc(q_cap * sizeof(int64_t)))
        || !(k->q_trigger = malloc(q_cap * sizeof(int64_t)))
        || !(k->t_pages = calloc(t_entries + 1, sizeof(int64_t)))
        || !(k->t_stamp = calloc(t_entries + 1, sizeof(int64_t)))
        || !(k->s_pc = malloc((s_cap + 1) * sizeof(int64_t)))
        || !(k->s_last = malloc((s_cap + 1) * sizeof(int64_t)))
        || !(k->s_stride = malloc((s_cap + 1) * sizeof(int64_t)))
        || !(k->s_conf = malloc((s_cap + 1) * sizeof(int64_t)))
        || im_init(&k->s_idx, 2 * (size_t)s_cap + 2) < 0 || cm_init(&k->issued_by_pc) < 0
        || cm_init(&k->useful_by_pc) < 0 || cm_init(&k->miss_by_pc) < 0) {
        PyErr_NoMemory();
        goto done;
    }
    k->s_idx.keys = k->s_pc;
    if (bind(k, fns) < 0 || tp_load(&k->tp) < 0) goto done;
    if (n && !issue_width) {
        PyErr_SetString(PyExc_ZeroDivisionError, "division by zero");
        goto done;
    }

    double cycle = 0.0, measured_cycles = 0.0;
    int64_t gap_total = 0, misses = 0, resize_left = resize_window;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (i == warmup && warmup) {
            /* Measurement reset: DRAM and L2-prefetch statistics only
             * (L1-prefetch totals span both phases, as in the engine). */
            k->d_reads = k->d_writes = k->d_md_reads = k->d_md_writes = 0;
            k->l2_issued = k->l2_useful = 0;
            cm_clear(&k->issued_by_pc);
            cm_clear(&k->useful_by_pc);
        }
        int64_t pc = COL(pcs, i), gap = COL(gaps, i);
        double step = (double)(gap + 1) / issue_width, latency;
        int level;
        if (demand(k, pc, COL(lines, i), cycle, &latency, &level) < 0) goto done;
        if (latency > hide) step += (latency - hide) / mlp;
        cycle += step;
        if (i >= warmup) {
            measured_cycles += step;
            gap_total += gap;
            if (level >= LV_L3) {
                misses++;
                if (cm_incr(&k->miss_by_pc, pc) < 0) {
                    PyErr_NoMemory();
                    goto done;
                }
            }
        }
        if (!--resize_left) {
            resize_left = resize_window;
            if (poll_resize(k) < 0) goto done;
        }
    }

    if (tp_store(&k->tp) < 0) goto done;
    PyObject *miss_by_pc = cm_to_dict(&k->miss_by_pc);
    PyObject *issued_by_pc = cm_to_dict(&k->issued_by_pc);
    PyObject *useful_by_pc = cm_to_dict(&k->useful_by_pc);
    if (miss_by_pc && issued_by_pc && useful_by_pc)
        result = Py_BuildValue("dLLOLLLLLLOOLL", measured_cycles, (long long)gap_total,
                               (long long)misses, miss_by_pc, (long long)k->d_reads,
                               (long long)k->d_writes, (long long)k->d_md_reads,
                               (long long)k->d_md_writes, (long long)k->l2_issued,
                               (long long)k->l2_useful, issued_by_pc, useful_by_pc,
                               (long long)k->l1_issued, (long long)k->l1_useful);
    Py_XDECREF(miss_by_pc);
    Py_XDECREF(issued_by_pc);
    Py_XDECREF(useful_by_pc);
done:
    PyBuffer_Release(&pcs);
    PyBuffer_Release(&lines);
    PyBuffer_Release(&gaps);
    kernel_free(k);
    return result;
}

static PyMethodDef methods[] = {
    {"run", run, METH_VARARGS, run_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel", "Native demand kernel (see repro.sim.native).", -1,
    methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    str_line = PyUnicode_InternFromString("line");
    str_trigger_pc = PyUnicode_InternFromString("trigger_pc");
    if (!str_line || !str_trigger_pc) return NULL;
    return PyModule_Create(&module);
}
