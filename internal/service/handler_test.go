package service

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/workload"
)

// replyRecorder is a reusable http.ResponseWriter: reset clears it between
// requests without freeing its header map or body buffer.
type replyRecorder struct {
	hdr  http.Header
	code int
	body []byte
}

func newReplyRecorder() *replyRecorder { return &replyRecorder{hdr: make(http.Header)} }

func (r *replyRecorder) Header() http.Header { return r.hdr }

func (r *replyRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *replyRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *replyRecorder) reset() {
	r.code = 0
	r.body = r.body[:0]
	clear(r.hdr)
}

// serveTarget sends one GET of target through h into rec.
func serveTarget(t testing.TB, h http.Handler, rec *replyRecorder, target string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		t.Fatalf("NewRequest %s: %v", target, err)
	}
	rec.reset()
	h.ServeHTTP(rec, req)
}

func newTestService(t testing.TB) *Service {
	t.Helper()
	svc, err := New(testConfig(nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	return svc
}

// queryCorpus holds raw queries that exercise every rule of url.ParseQuery
// the one-pass parser must reproduce, and the benchmark's query shapes.
var queryCorpus = []string{
	"",
	"key=s0-3-5&m=12345&cnt=8",
	"key=s1-0-2&m=77",
	"k=77&v=123",
	"k=4096",
	"series=r1-2-3&t=55&cnt=16",
	"series=r1-2-3&from=100&to=600&cnt=64",
	"key=a%20b&m=1",
	"k%65y=a+b&m=%2B1",
	"key=a;b&key=c",
	"a=1;b=2&a=3",
	"key=1&key=2",
	"key=&key=2",
	"key&key=2",
	"key=%zz&key=ok",
	"%zz=1&key=2",
	"k%zzey=1&key=2",
	"=x&key=y",
	"&&key=1&",
	"key==1",
	"key=a=b",
	"+=space&%20=pct",
	"cnt=%",
	"cnt=%4",
}

// FuzzQueryParam is a differential target: for any raw query and name,
// queryValue must return what url.ParseQuery(raw).Get(name) does. Its seeds
// pair the corpus with every name the handlers read and a few odd ones.
func FuzzQueryParam(f *testing.F) {
	for _, raw := range queryCorpus {
		for _, name := range []string{"key", "m", "cnt", "k", "v", "series", "t", "from", "to", "a", "b", "", " ", "+"} {
			f.Add(raw, name)
		}
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		vals, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, name), vals.Get(name); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, want %q", raw, name, got, want)
		}
	})
}

// bodyClass summarizes a reply for the routing parity test: short
// text/plain bodies (store replies, errors, /healthz) compare exactly, the
// rest by content type and whether a body was written.
func bodyClass(rec *replyRecorder) string {
	ct := rec.hdr.Get("Content-Type")
	if strings.HasPrefix(ct, "text/plain") && len(rec.body) < 64 {
		return fmt.Sprintf("%s %q", ct, rec.body)
	}
	return fmt.Sprintf("%s nonempty=%v", ct, len(rec.body) > 0)
}

// muxHandler is the reference route table: every route registered on a
// plain ServeMux, each store route bound to its handler directly.
func muxHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/set/add", func(w http.ResponseWriter, r *http.Request) { s.handleSet(w, r, workload.OpSetAdd) })
	mux.HandleFunc("/set/has", func(w http.ResponseWriter, r *http.Request) { s.handleSet(w, r, workload.OpSetHas) })
	mux.HandleFunc("/set/rem", s.handleSetRem)
	mux.HandleFunc("/set/drop", s.handleSetDrop)
	mux.HandleFunc("/kv/put", func(w http.ResponseWriter, r *http.Request) { s.handleKV(w, r, workload.OpKVPut) })
	mux.HandleFunc("/kv/get", func(w http.ResponseWriter, r *http.Request) { s.handleKV(w, r, workload.OpKVGet) })
	mux.HandleFunc("/range/add", s.handleRangeAdd)
	mux.HandleFunc("/range/scan", s.handleRangeScan)
	mux.HandleFunc("/range/drop", s.handleRangeDrop)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/", s.diagSrv.Handler())
	return mux
}

// TestHandlerRoutingParity sends the same request sequence to Handler and
// to the reference ServeMux, each over its own fresh service: status, body
// class and redirect target must agree for every path, so exact-path
// dispatch changes no route.
func TestHandlerRoutingParity(t *testing.T) {
	direct, viaMux := newTestService(t), newTestService(t)
	handlers := [2]http.Handler{direct.Handler(), muxHandler(viaMux)}
	targets := []string{
		// The nine store routes, with good and bad parameters.
		"/set/add?key=a&m=1", "/set/add?key=a&m=1&cnt=3", "/set/add?key=a&m=x", "/set/add?m=1",
		"/set/has?key=a&m=1", "/set/has?key=a&m=2", "/set/has?key=zz&m=1", "/set/has?key=a",
		"/set/has?k%65y=a&m=%2B1", "/set/has?key=a;b&m=1",
		"/set/rem?key=a&m=1", "/set/rem?key=a", "/set/rem?m=1",
		"/set/drop?key=a", "/set/drop?key=a", "/set/drop",
		"/kv/put?k=5&v=7", "/kv/put?k=5", "/kv/put?k=x&v=1", "/kv/put?k=5&v=8",
		"/kv/get?k=5", "/kv/get?k=6", "/kv/get?k=99999", "/kv/get", "/kv/get?k=1e3",
		"/range/add?series=s&t=10&cnt=5", "/range/add?series=s", "/range/add?t=1",
		"/range/scan?series=s&from=0&to=2500", "/range/scan?series=s&from=0&to=100&cnt=64",
		"/range/scan?series=none&from=0&to=1", "/range/scan?series=s&from=0",
		"/range/drop?series=s", "/range/drop?series=s", "/range/drop",
		// Everything else goes to the mux.
		"/healthz", "/stats", "/metrics", "/sites", "/events", "/debug/vars",
		"/nope", "/set", "/set/add/", "/set//add?key=b&m=1", "/set/./has?key=b&m=1",
		"/kv/../kv/get?k=5", "/set/%61dd?key=c&m=2", "/set/has?key=c&m=2",
	}
	for _, target := range targets {
		var recs [2]*replyRecorder
		for i, h := range handlers {
			recs[i] = newReplyRecorder()
			serveTarget(t, h, recs[i], target)
		}
		d, m := recs[0], recs[1]
		if d.code != m.code || bodyClass(d) != bodyClass(m) || d.hdr.Get("Location") != m.hdr.Get("Location") {
			t.Errorf("%s: Handler %d %s (Location %q), ServeMux %d %s (Location %q)", target,
				d.code, bodyClass(d), d.hdr.Get("Location"), m.code, bodyClass(m), m.hdr.Get("Location"))
		}
	}
	if got, want := direct.RequestsTotal(), viaMux.RequestsTotal(); got != want || got == 0 {
		t.Errorf("requests handled: Handler %d, ServeMux %d", got, want)
	}
}

// BenchmarkHandler times one store request through Handler per route, with
// a reusable request and response writer, so allocs/op is the handler's own.
func BenchmarkHandler(b *testing.B) {
	svc := newTestService(b)
	h := svc.Handler()
	rec := newReplyRecorder()
	for _, target := range []string{"/set/add?key=bench&m=640&cnt=64", "/range/add?series=bench&t=0&cnt=64", "/kv/put?k=42&v=1"} {
		serveTarget(b, h, rec, target)
	}
	for _, bc := range []struct{ name, path, query string }{
		{"set_has", "/set/has", "key=bench&m=640"},
		{"set_add", "/set/add", "key=bench&m=640&cnt=1"},
		{"kv_get", "/kv/get", "k=42"},
		{"kv_put", "/kv/put", "k=42&v=1"},
		{"range_scan", "/range/scan", "series=bench&from=0&to=5000&cnt=8"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req, err := http.NewRequest(http.MethodGet, bc.path+"?"+bc.query, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				rec.reset()
				h.ServeHTTP(rec, req)
			}
			if rec.code != http.StatusOK {
				b.Fatalf("%s?%s: status %d: %s", bc.path, bc.query, rec.code, rec.body)
			}
		})
	}
}

// A scan over several windows gives the same count and sum from a monitored
// instance as from an unmonitored one. In a fixed sortedarray service the
// unmonitored instance answers through Range (sorted=true); the monitor
// wrapper exposes only Set, so the monitored one takes the per-window
// ForEach fallback (sorted=false).
func TestRangeScanMonitoredMatchesUnmonitored(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Fixed = "sortedarray"
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	h := svc.Handler()
	rec := newReplyRecorder()
	// A fresh context monitors its first WindowSize instances only.
	const t0, cnt = 5, 40
	series := make([]string, cfg.Engine.WindowSize+1)
	for i := range series {
		series[i] = fmt.Sprintf("w%d", i)
		serveTarget(t, h, rec, fmt.Sprintf("/range/add?series=%s&t=%d&cnt=%d", series[i], t0, cnt))
	}
	const from, to, windows = 0, 5000, 6
	var wantCount, wantSum int64
	for w := int64(0); w < windows; w++ {
		for i := int64(0); i < cnt; i++ {
			if v := t0 + i*batchStride; v >= from+w*(to-from) && v <= to+w*(to-from) {
				wantCount++
				wantSum += v
			}
		}
	}
	want := fmt.Sprintf("%d %d", wantCount, wantSum)
	for _, tc := range []struct {
		series string
		sorted bool
	}{{series[0], false}, {series[len(series)-1], true}} {
		serveTarget(t, h, rec, fmt.Sprintf("/range/scan?series=%s&from=%d&to=%d&cnt=%d", tc.series, from, to, windows))
		got := strings.TrimSpace(string(rec.body))
		if wantReply := fmt.Sprintf("%s sorted=%v", want, tc.sorted); got != wantReply {
			t.Errorf("scan of %s = %q, want %q", tc.series, got, wantReply)
		}
	}
	if m := svc.Registry().InstancesMonitored.Load(); m != int64(cfg.Engine.WindowSize) {
		t.Errorf("%d instances monitored, want %d", m, cfg.Engine.WindowSize)
	}
}
