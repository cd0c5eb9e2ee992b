package netpeer

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/rel"
	"repro/internal/wire"
)

// TestSlowStreamDoesNotConvoyServer is the regression test for a convoy
// the open-loop load generator flushed out: response streams hold the
// server's read lock end to end, and mutations used to take the write
// lock — so one slow consumer (stream write-blocked on a full socket
// buffer) plus one pending add left every later request stuck behind the
// write-preferring RWMutex until the stall resolved, bounded only by
// WriteTimeout (60s by default). The admission gate cannot help: the
// convoyed requests already hold their slots.
//
// With inserts moved to the read side (relations self-synchronize), a stalled
// stream costs only its own connection. The test pins a stream, then
// requires a mutation and an unrelated scan to complete promptly.
func TestSlowStreamDoesNotConvoyServer(t *testing.T) {
	data := rel.NewInstance()
	for i := 0; i < 16; i++ {
		if _, err := data.Add("A.r", rel.Tuple{fmt.Sprintf("k%d", i), "v"}); err != nil {
			t.Fatal(err)
		}
	}
	// Big enough that streaming it write-blocks once the reader stalls.
	big := rel.Tuple{"", string(make([]byte, 256))}
	for i := 0; i < 40000; i++ {
		big[0] = fmt.Sprintf("b%06d", i)
		if _, err := data.Add("A.big", big); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(data)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// The slow consumer: request the big scan, read nothing. The server's
	// stream stalls once the socket buffers fill — detected as bytes_sent
	// going flat while the response is still unfinished.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })
	b, _ := json.Marshal(wire.Request{Op: "scan", Pred: "A.big"})
	if _, err := slow.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
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
