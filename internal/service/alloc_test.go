//go:build !race

// The race detector makes sync.Pool drop recycled buffers at random, so
// allocation counts are only meaningful without it.

package service

import (
	"net/http"
	"testing"
)

// allocsPerRequest reports the average allocations of one ServeHTTP of
// target through h, with a reused request and response writer, after
// checking that the request succeeds.
func allocsPerRequest(t *testing.T, h http.Handler, target string) float64 {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		t.Fatalf("NewRequest %s: %v", target, err)
	}
	rec := newReplyRecorder()
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.code, rec.body)
	}
	return testing.AllocsPerRun(200, func() {
		rec.reset()
		h.ServeHTTP(rec, req)
	})
}

// TestStoreRequestsAllocFree is the allocation guard of the store request
// path: point requests allocate nothing, and a range scan allocates the
// same at one window as at 64.
func TestStoreRequestsAllocFree(t *testing.T) {
	svc := newTestService(t)
	h := svc.Handler()
	rec := newReplyRecorder()
	for _, target := range []string{"/set/add?key=g&m=5", "/kv/put?k=42&v=9", "/range/add?series=g&t=0&cnt=64"} {
		serveTarget(t, h, rec, target)
	}
	for _, target := range []string{
		"/set/has?key=g&m=5",
		"/set/add?key=g&m=5&cnt=1",
		"/kv/put?k=42&v=9",
		"/kv/get?k=42",
		"/kv/get?k=43",
		"/kv/get?k=1000000",
		"/set/drop?key=missing",
	} {
		if n := allocsPerRequest(t, h, target); n != 0 {
			t.Errorf("%s: %v allocs per request, want 0", target, n)
		}
	}
	one := allocsPerRequest(t, h, "/range/scan?series=g&from=0&to=5000&cnt=1")
	many := allocsPerRequest(t, h, "/range/scan?series=g&from=0&to=5000&cnt=64")
	if one != many {
		t.Errorf("/range/scan: %v allocs per request at cnt=1, %v at cnt=64; want equal", one, many)
	}
}
