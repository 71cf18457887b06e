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
 * The L2 temporal prefetcher stays in Python: the kernel calls
 * ``observe_fast(pc, line)`` when the prefetcher has one, else the
 * generic ``observe(L2AccessInfo)`` (plus ``drain_metadata_traffic()``
 * for off-chip metadata schemes), along with ``note_useful`` /
 * ``note_issued`` and a non-stride L1 prefetcher's ``observe``.  After a
 * resize poll the kernel calls back into Python to apply the resize and
 * re-fetches every prefetcher callable (the rebind rule).
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
static int observe_l2(Kernel *k, int64_t pc, int64_t line, double cycle, int l2_hit,
                      int from_l1_pf)
{
    if (k->null_l2) return 0;
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
static int poll_resize(Kernel *k)
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
"    modes, fns, desired, resize, drain, access_info)\n"
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
            args, "OOOnL(nininiiiidddddnnndLpin)(idi)(ppp)OOOOO", &pcs_o, &lines_o, &gaps_o,
            &warmup, &resize_window, &l1_sets, &l1_assoc, &l2_sets, &l2_assoc, &l3_sets,
            &l3_assoc, &l3_data_ways, &meta_ways, &max_meta_ways, &l1_lat, &l2_lat, &l3_lat,
            &d_service, &d_access, &m_cap, &q_cap, &t_entries, &t_walk, &lines_per_page,
            &cross_page_ok, &s_degree, &s_cap, &issue_width, &hide, &mlp, &k->null_l1,
            &k->null_l2, &k->offchip, &fns, &k->desired, &k->resize, &k->drain,
            &k->access_info))
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
    if (bind(k, fns) < 0) goto done;
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
