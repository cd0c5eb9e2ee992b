package netpeer

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rel"
)

// TestSlowStreamDoesNotConvoyServer is the regression test for a convoy
// the open-loop load generator flushed out: one slow consumer (a stream
// write-blocked on a full socket buffer) plus one pending add once left
// every later request stuck until the stall resolved, bounded only by
// WriteTimeout (60s by default). The admission gate cannot help: the
// convoyed requests already hold their slots.
//
// A stalled stream costs only its own connection. The test pins a stream,
// then requires another client's insert and an unrelated scan to complete
// promptly while it stays stalled.
func TestSlowStreamDoesNotConvoyServer(t *testing.T) {
	data := rel.NewInstance()
	for i := 0; i < 16; i++ {
		if _, err := data.Add("A.r", rel.Tuple{fmt.Sprintf("k%d", i), "v"}); err != nil {
			t.Fatal(err)
		}
	}
	addPinnable(t, data, "A.big")
	srv := NewServer(data)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// The slow consumer: request the big scan, read nothing. The server's
	// stream stalls once the socket buffers fill — detected as bytes_sent
	// going flat while the response is still unfinished.
	slowConsumer(t, addr, "A.big")
	deadline := time.Now().Add(10 * time.Second)
	var prev uint64
	for {
		cur := srv.bytesSent.Load()
		if cur > 0 && cur == prev {
			break // stream started and has stopped making progress
		}
		if time.Now().After(deadline) {
			t.Fatal("big scan never write-blocked")
		}
		prev = cur
		time.Sleep(50 * time.Millisecond)
	}

	// A mutation and an unrelated read must both complete while the stream
	// stays stalled. Before the fix the add blocked on the write lock and
	// the scan blocked behind the add.
	done := make(chan error, 1)
	go func() {
		c, err := Dial(addr)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		if _, err := c.Add("A.w", [][]string{{"x", "y"}}); err != nil {
			done <- fmt.Errorf("add: %w", err)
			return
		}
		rows, err := c.Scan("A.r")
		if err != nil {
			done <- fmt.Errorf("scan: %w", err)
			return
		}
		if len(rows) != 16 {
			done <- fmt.Errorf("scan: got %d rows, want 16", len(rows))
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("add+scan convoyed behind the stalled stream")
	}
}

// TestShutdownDoesNotWaitOnStalledStream pins a write-blocked stream under
// the default write timeout (60 s) and requires Close, and Drain with a
// 200 ms grace period, each to return within a second. Streams used to
// hold the server's read lock end to end while Close and Drain took the
// write side for the listener, so a peer could not leave until the stalled
// write timed out.
func TestShutdownDoesNotWaitOnStalledStream(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(*Server) error
	}{
		{"Close", (*Server).Close},
		{"Drain", func(s *Server) error { return s.Drain(200 * time.Millisecond) }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			data := rel.NewInstance()
			addPinnable(t, data, "A.big")
			srv := NewServer(data)
			if srv.writeTimeout != defaultWriteTimeout {
				t.Fatalf("write timeout %v, want the default", srv.writeTimeout)
			}
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			slowConsumer(t, addr, "A.big")
			var prev uint64
			waitFor(t, "the big scan to write-block", func() bool {
				time.Sleep(50 * time.Millisecond)
				cur := srv.bytesSent.Load()
				stalled := cur > 0 && cur == prev
				prev = cur
				return stalled
			})

			done := make(chan error, 1)
			start := time.Now()
			go func() { done <- stop.fn(srv) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s returned in %v", stop.name, time.Since(start))
			case <-time.After(time.Second):
				t.Fatalf("%s waited on the stalled stream", stop.name)
			}
		})
	}
}
