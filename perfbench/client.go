package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/workload"
)

// batchStride mirrors the service's spacing of batched members: member j
// of a batch starting at m is m + j*batchStride.
const batchStride = 997

// --- oracle -----------------------------------------------------------------

// memberLimit bounds every value a batched set add can produce.
const memberLimit = setSpan + setBurst*batchStride

// memberSet is the oracle of one membership set: a bitmap over every value
// a batched add can produce, and the batches added, from which lookups
// pick existing members.
type memberSet struct {
	bits    []uint64
	batches []batch
}

type batch struct {
	start int64
	n     int
}

func (m *memberSet) has(v int64) bool {
	return m.bits != nil && m.bits[v>>6]&(1<<(v&63)) != 0
}

// addBatch adds the cnt members of the batch starting at start and reports
// whether any was new.
func (m *memberSet) addBatch(start int64, cnt int) bool {
	if m.bits == nil {
		m.bits = make([]uint64, (memberLimit+63)/64)
	}
	added := false
	for j := 0; j < cnt; j++ {
		v := start + int64(j)*batchStride
		if !m.has(v) {
			m.bits[v>>6] |= 1 << (v & 63)
			added = true
		}
	}
	m.batches = append(m.batches, batch{start, cnt})
	return added
}

// member returns a random existing member (the set must not be empty).
func (m *memberSet) member(r *rand.Rand) int64 {
	b := m.batches[r.Intn(len(m.batches))]
	return b.start + int64(r.Intn(b.n))*batchStride
}

// series is the oracle of one range series: its members, sorted.
type series []int64

func (s series) find(v int64) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i, i < len(s) && s[i] == v
}

// addBatch adds the cnt members of the batch starting at start and reports
// whether any was new.
func (s *series) addBatch(start int64, cnt int) bool {
	added := false
	for j := 0; j < cnt; j++ {
		v := start + int64(j)*batchStride
		i, ok := s.find(v)
		if ok {
			continue
		}
		*s = append(*s, 0)
		copy((*s)[i+1:], (*s)[i:])
		(*s)[i] = v
		added = true
	}
	return added
}

func (s series) scan(lo, hi int64) (count, sum int64) {
	i, _ := s.find(lo)
	for ; i < len(s) && s[i] <= hi; i++ {
		count++
		sum += s[i]
	}
	return count, sum
}

// keyState is one worker's keys and the oracle of their contents.
type keyState struct {
	owner      int
	gen        int64
	setNames   []string
	sets       []memberSet
	rangeNames []string
	ranges     []series
	kv         []int64
	kvLive     []bool
}

func newKeyState(owner int) *keyState {
	k := &keyState{
		owner:      owner,
		setNames:   make([]string, setKeys),
		sets:       make([]memberSet, setKeys),
		rangeNames: make([]string, rangeKeys),
		ranges:     make([]series, rangeKeys),
		kv:         make([]int64, kvKeys),
		kvLive:     make([]bool, kvKeys),
	}
	k.newGeneration(0)
	return k
}

// newGeneration empties the set and range oracles, keeping their memory,
// and names the generation's keys.
func (k *keyState) newGeneration(gen int64) {
	k.gen = gen
	for i := range k.sets {
		clear(k.sets[i].bits)
		k.sets[i].batches = k.sets[i].batches[:0]
		k.setNames[i] = fmt.Sprintf("s%d-%d-%d", k.owner, gen, i)
	}
	for i := range k.ranges {
		k.ranges[i] = k.ranges[i][:0]
		k.rangeNames[i] = fmt.Sprintf("r%d-%d-%d", k.owner, gen, i)
	}
}

func (k *keyState) kvKey(j int) int64 { return int64(k.owner*kvKeys + j) }

// --- in-process client --------------------------------------------------------

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

// client is one closed-loop worker: it sends its next request only after
// the previous one returned, and checks every reply against its oracle.
type client struct {
	id  int
	rng *rand.Rand
	h   http.Handler
	req *http.Request
	rec recorder
	q   []byte // the next request's query
	// want holds a scan's expected reply.
	want []byte
	own  *keyState
	all  []*keyState
	// shared is set once set-up is done in the read-only workload: the
	// worker then reads every worker's keys, and its writes only rewrite
	// existing members and values, so no oracle changes.
	shared bool
	tr     *tracer
	seq    int64
	hists  [numOps]latHist
	count  [numOps]int64
	// Checks, merged into the report once the worker stopped.
	attempted, failed int64
	mismatches        []string
}

func newClient(id int, seed int64, h http.Handler, own *keyState, all []*keyState) *client {
	req, err := http.NewRequest(http.MethodGet, "/", nil)
	if err != nil {
		panic(err) // a constant URL always parses
	}
	return &client{
		id: id, rng: rand.New(rand.NewSource(seed*1009 + int64(id))), h: h, req: req,
		rec: recorder{hdr: make(http.Header)}, own: own, all: all,
	}
}

// verify counts one check and reports ok; a caller describes a failed
// check with mismatch, so passing checks format nothing.
func (c *client) verify(ok bool) bool {
	c.attempted++
	if !ok {
		c.failed++
	}
	return ok
}

func (c *client) mismatch(format string, args ...any) {
	if len(c.mismatches) < 20 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// query sets the next request's query string from name/value pairs; values
// are strings or int64s.
func (c *client) query(kv ...any) {
	c.q = c.q[:0]
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			c.q = append(c.q, '&')
		}
		c.q = append(c.q, kv[i].(string)...)
		c.q = append(c.q, '=')
		switch v := kv[i+1].(type) {
		case string:
			c.q = append(c.q, v...)
		case int64:
			c.q = strconv.AppendInt(c.q, v, 10)
		}
	}
}

// beginRequest opens the span of the next request: building it, serving
// it and checking the reply.
func (c *client) beginRequest(parent int64) int64 {
	return c.tr.begin(spanRequest, parent, int64(c.id)<<32|c.seq)
}

// serve sends one request of kind op to path with the query set by query,
// its handler call spanned as a child of parent, and returns the reply body
// without its trailing newline. A non-200 status counts as a failed check
// and returns ok=false.
func (c *client) serve(op int, path string, parent int64) (body []byte, ok bool) {
	rid := int64(c.id)<<32 | c.seq
	c.seq++
	c.req.URL.Path = path
	c.req.URL.RawQuery = string(c.q)
	c.rec.code = 0
	c.rec.body = c.rec.body[:0]
	clear(c.rec.hdr)
	hid := c.tr.begin(spanHandler, parent, rid)
	start := time.Now()
	c.h.ServeHTTP(&c.rec, c.req)
	d := time.Since(start)
	c.tr.end(hid)
	c.hists[op].record(d)
	c.count[op]++
	if !c.verify(c.rec.code == http.StatusOK) {
		c.mismatch("%s?%s: status %d: %s", path, c.q, c.rec.code, bytes.TrimSpace(c.rec.body))
		return nil, false
	}
	return bytes.TrimSuffix(c.rec.body, []byte("\n")), true
}

// expect checks a reply body against the oracle's answer.
func (c *client) expect(path string, body []byte, want string) {
	if !c.verify(string(body) == want) {
		c.mismatch("%s?%s: got %q want %q", path, c.q, body, want)
	}
}

func boolReply(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// --- requests -----------------------------------------------------------------

func (c *client) setAdd(st *keyState, i int, m int64, cnt int, parent int64) {
	c.query("key", st.setNames[i], "m", m, "cnt", int64(cnt))
	body, ok := c.serve(int(workload.OpSetAdd), "/set/add", parent)
	if !ok {
		return
	}
	ms := &st.sets[i]
	var added bool
	if c.shared {
		added = !ms.has(m) // a shared add rewrites one existing member
	} else {
		added = ms.addBatch(m, cnt)
	}
	c.expect("/set/add", body, boolReply(added))
}

func (c *client) setHas(st *keyState, i int, m int64, parent int64) {
	c.query("key", st.setNames[i], "m", m)
	if body, ok := c.serve(int(workload.OpSetHas), "/set/has", parent); ok {
		c.expect("/set/has", body, boolReply(st.sets[i].has(m)))
	}
}

func (c *client) kvPut(st *keyState, j int, v int64, parent int64) {
	c.query("k", st.kvKey(j), "v", v)
	body, ok := c.serve(int(workload.OpKVPut), "/kv/put", parent)
	if !ok {
		return
	}
	c.expect("/kv/put", body, boolReply(st.kvLive[j]))
	if !c.shared {
		st.kv[j], st.kvLive[j] = v, true
	}
}

func (c *client) kvGet(st *keyState, j int, parent int64) {
	c.query("k", st.kvKey(j))
	body, ok := c.serve(int(workload.OpKVGet), "/kv/get", parent)
	if !ok {
		return
	}
	want := "miss"
	if st.kvLive[j] {
		want = strconv.FormatInt(st.kv[j], 10)
	}
	c.expect("/kv/get", body, want)
}

func (c *client) rangeAdd(st *keyState, i int, t int64, cnt int, parent int64) {
	c.query("series", st.rangeNames[i], "t", t, "cnt", int64(cnt))
	body, ok := c.serve(int(workload.OpRangeAdd), "/range/add", parent)
	if !ok {
		return
	}
	s := &st.ranges[i]
	var added bool
	if c.shared {
		_, found := s.find(t)
		added = !found
	} else {
		added = s.addBatch(t, cnt)
	}
	c.expect("/range/add", body, boolReply(added))
}

// rangeScan asks for scanBurst adjacent windows of scanWidth from from; the
// reply is "count sum sorted=<bool>".
func (c *client) rangeScan(st *keyState, i int, from int64, parent int64) {
	c.query("series", st.rangeNames[i], "from", from, "to", from+scanWidth, "cnt", int64(scanBurst))
	body, ok := c.serve(int(workload.OpRangeScan), "/range/scan", parent)
	if !ok {
		return
	}
	var count, sum int64
	for w := int64(0); w < scanBurst; w++ {
		lo := from + w*scanWidth
		n, s := st.ranges[i].scan(lo, lo+scanWidth)
		count += n
		sum += s
	}
	got, _, _ := bytes.Cut(body, []byte(" sorted="))
	c.want = strconv.AppendInt(append(strconv.AppendInt(c.want[:0], count, 10), ' '), sum, 10)
	if !c.verify(bytes.Equal(got, c.want)) {
		c.mismatch("/range/scan?%s: got %q want %q", c.q, body, c.want)
	}
}

// one issues a single request of kind op with generated parameters. It
// works on the worker's own keys or, shared, on any worker's.
func (c *client) one(op workload.ServiceOp, parent int64) {
	parent = c.beginRequest(parent)
	defer c.tr.end(parent)
	st := c.own
	if c.shared {
		st = c.all[c.rng.Intn(len(c.all))]
	}
	switch op {
	case workload.OpSetAdd:
		i := c.rng.Intn(setKeys)
		if c.shared {
			c.setAdd(st, i, st.sets[i].member(c.rng), 1, parent)
			return
		}
		c.setAdd(st, i, c.rng.Int63n(setSpan), setBurst, parent)
	case workload.OpSetHas:
		i := c.rng.Intn(setKeys)
		m := c.rng.Int63n(setSpan)
		if len(st.sets[i].batches) > 0 && c.rng.Intn(2) == 0 {
			m = st.sets[i].member(c.rng) // half the lookups hit
		}
		c.setHas(st, i, m, parent)
	case workload.OpKVPut:
		j := c.rng.Intn(kvKeys)
		v := c.rng.Int63()
		if c.shared {
			v = st.kv[j]
		}
		c.kvPut(st, j, v, parent)
	case workload.OpKVGet:
		c.kvGet(st, c.rng.Intn(kvKeys), parent)
	case workload.OpRangeAdd:
		i := c.rng.Intn(rangeKeys)
		if c.shared {
			s := st.ranges[i]
			c.rangeAdd(st, i, s[c.rng.Intn(len(s))], 1, parent)
			return
		}
		c.rangeAdd(st, i, c.rng.Int63n(rangeSpan), rangeBurst, parent)
	case workload.OpRangeScan:
		c.rangeScan(st, c.rng.Intn(rangeKeys), c.rng.Int63n(rangeSpan), parent)
	}
}

// dropGeneration retires the worker's current set and range keys through
// explicit drops and starts the next generation.
func (c *client) dropGeneration(parent int64) {
	st := c.own
	for i, name := range st.setNames {
		c.drop("/set/drop", "key", name, len(st.sets[i].batches) > 0, parent)
	}
	for i, name := range st.rangeNames {
		c.drop("/range/drop", "series", name, len(st.ranges[i]) > 0, parent)
	}
	st.newGeneration(st.gen + 1)
}

func (c *client) drop(path, param, name string, live bool, parent int64) {
	parent = c.beginRequest(parent)
	defer c.tr.end(parent)
	c.query(param, name)
	if body, ok := c.serve(opDrop, path, parent); ok {
		c.expect(path, body, boolReply(live))
	}
}

// preload fills the worker's own keys during set-up: a value under every kv
// key and, when full is set, adds batches to every set and range series.
func (c *client) preload(full bool) {
	st := c.own
	for j := range st.kv {
		c.kvPut(st, j, c.rng.Int63(), -1)
	}
	if !full {
		return
	}
	for i := range st.sets {
		for n := 0; n < preloadSetAdds; n++ {
			c.setAdd(st, i, c.rng.Int63n(setSpan), setBurst, -1)
		}
	}
	for i := range st.ranges {
		for n := 0; n < preloadRangeAdds; n++ {
			c.rangeAdd(st, i, c.rng.Int63n(rangeSpan), rangeBurst, -1)
		}
	}
}

// epochCmd tells a worker to run one epoch.
type epochCmd struct {
	mix      workload.ServiceMix
	requests int
	rotate   bool
	traced   bool
	parent   int64
}

// work runs epochs until cmds is closed.
func (c *client) work(cmds <-chan epochCmd, done *sync.WaitGroup, tr *tracer) {
	for cmd := range cmds {
		c.tr = nil
		if cmd.traced {
			c.tr = tr
		}
		if cmd.rotate {
			c.dropGeneration(cmd.parent)
		}
		for i := 0; i < cmd.requests; i++ {
			c.one(cmd.mix.Pick(c.rng), cmd.parent)
		}
		done.Done()
	}
}
