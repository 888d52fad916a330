package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests stalls one request for 300 ms
// on a server that handles one request at a time. Every request
// scheduled during the stall waits behind it, and its latency must say
// so: it is measured from the scheduled send time, not from when a
// connection became free (which would hide the stall — coordinated
// omission).
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		gap     = 10 * time.Millisecond
		n       = 60
		stalled = 10
		stall   = 300 * time.Millisecond
	)
	var mu sync.Mutex // the server executes one request at a time
	var stallEnd atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.URL.Query().Get("i"))
		mu.Lock()
		defer mu.Unlock()
		if i == stalled {
			time.Sleep(stall)
			stallEnd.Store(time.Now().UnixNano())
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := newClient()
	defer client.CloseIdleConnections()

	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	var failed atomic.Int32
	got := openLoop(offsets, textConns, func(i int) {
		resp, err := client.Get(fmt.Sprintf("%s/?i=%d", srv.URL, i))
		if err != nil {
			failed.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed", failed.Load())
	}
	end := time.Unix(0, stallEnd.Load())
	waited := 0
	for i := stalled + 1; i < n; i++ {
		due := got.start.Add(offsets[i])
		if !due.Before(end) {
			break
		}
		waited++
		if min := end.Sub(due); got.lat[i] < min {
			t.Errorf("request %d scheduled %v before the stall ended reports %v latency", i, min, got.lat[i])
		}
	}
	if waited < 20 {
		t.Fatalf("only %d requests were scheduled during the stall", waited)
	}
	// The generator never waits for the server.
	for i, l := range got.lag {
		if l > 100*time.Millisecond {
			t.Errorf("request %d handed off %v late", i, l)
		}
	}
}
