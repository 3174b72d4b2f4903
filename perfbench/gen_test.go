package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stubDaemon serves the three daemon endpoints the client uses; POST
// /sweeps takes delay. It records the most connections ever open at once.
func stubDaemon(t *testing.T, delay time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"s1"}`))
	})
	mux.HandleFunc("GET /sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"seq":1,"type":"run"}` + "\n" + `{"seq":2,"type":"done"}` + "\n"))
	})
	mux.HandleFunc("GET /sweeps/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}\n"))
	})
	ts := httptest.NewUnstartedServer(mux)
	var open, maxOpen atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			n := open.Add(1)
			for m := maxOpen.Load(); n > m && !maxOpen.CompareAndSwap(m, n); m = maxOpen.Load() {
			}
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &maxOpen
}

func TestOpenLoopReportsStubDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	// The client does not poll: it follows the event stream, so the only
	// slack is timer wake-up and loopback HTTP.
	const resolution = 10 * time.Millisecond
	conns := runtime.NumCPU()
	ts, maxOpen := stubDaemon(t, delay)
	cl := newClient(ts.URL, conns)
	defer cl.hc.CloseIdleConnections()

	// 25/s from conns senders with a 20 ms service time never queues.
	samples := openLoop(context.Background(), schedule(40, 25), conns, func(ctx context.Context, i int) error {
		_, err := cl.submit(ctx, []byte(`{}`))
		return err
	})
	var lat, lag []float64
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if s.latency() < delay {
			t.Errorf("request %d latency %v below the stub's delay %v", i, s.latency(), delay)
		}
		lat = append(lat, float64(s.latency())/float64(time.Millisecond))
		lag = append(lag, float64(s.lag())/float64(time.Millisecond))
	}
	if m := median(lat); m > float64((delay+resolution)/time.Millisecond) {
		t.Errorf("median latency %.2f ms, want within %v of the stub's %v", m, resolution, delay)
	}
	if p := quantile(lag, 0.99); p > float64(resolution/time.Millisecond) {
		t.Errorf("generator lag p99 %.2f ms, want under %v", p, resolution)
	}
	if n := maxOpen.Load(); n > int64(conns) {
		t.Errorf("%d connections open at once, want at most nproc = %d", n, conns)
	}
}

// TestOpenLoopCountsFromDueTime overloads one sender: requests due every
// 10 ms take 20 ms each, so the generator falls behind and each request's
// latency includes the time it waited to be sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const delay = 20 * time.Millisecond
	ts, maxOpen := stubDaemon(t, delay)
	cl := newClient(ts.URL, 1)
	defer cl.hc.CloseIdleConnections()
	samples := openLoop(context.Background(), schedule(10, 100), 1, func(ctx context.Context, i int) error {
		_, err := cl.submit(ctx, []byte(`{}`))
		return err
	})
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if s.latency() < s.lag()+delay {
			t.Errorf("request %d: latency %v < lag %v + delay %v", i, s.latency(), s.lag(), delay)
		}
	}
	if last := samples[len(samples)-1]; last.lag() < 8*(delay-10*time.Millisecond) {
		t.Errorf("last request lag %v: an overloaded generator must fall behind", last.lag())
	}
	if n := maxOpen.Load(); n > 1 {
		t.Errorf("%d connections open at once with one sender", n)
	}
}
