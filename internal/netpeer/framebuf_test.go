package netpeer

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
)

func TestRecycleDropsOversizedBuffers(t *testing.T) {
	if b := recycle(make([]byte, 10, maxKeptFrameBytes)); b == nil || len(b) != 0 || cap(b) != maxKeptFrameBytes {
		t.Fatalf("a buffer at the cap came back as len %d cap %d; want it emptied and kept", len(b), cap(b))
	}
	if b := recycle(make([]byte, 10, maxKeptFrameBytes+1)); b != nil {
		t.Fatalf("a buffer past the cap was kept (cap %d)", cap(b))
	}
}

// TestClientDropsOversizedFrameBuffer checks the client's reused frame
// buffer end to end: kept across normal frames, and not kept once a frame
// far above the chunk bound has been read through it, so one hostile frame
// does not stay pinned for the life of a pooled connection.
func TestClientDropsOversizedFrameBuffer(t *testing.T) {
	frame := encodeFrame
	huge := strings.Repeat("x", 2*maxKeptFrameBytes)
	stream := bytes.Join([][]byte{
		frame(wire.Response{Rows: [][]string{{"a", "b"}}, More: true}),
		frame(wire.Response{Preds: []string{"p"}}),
		frame(wire.Response{Rows: [][]string{{huge}}}),
	}, nil)
	c := fuzzClient(stream)
	c.maxFrame = wire.DefaultMaxFrame

	var got [][]string
	collect := func(rows [][]string) error {
		got = append(got, rows...)
		return nil
	}
	if _, err := c.readStream(collect); err != nil {
		t.Fatal(err)
	}
	if kept := cap(c.frame); kept == 0 || kept > maxKeptFrameBytes {
		t.Fatalf("frame buffer cap %d after normal frames; want it kept", kept)
	}
	if _, err := c.readStream(collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][0] != huge || got[0][1] != "b" {
		t.Fatalf("rows did not survive the buffer reuse: %d rows", len(got))
	}
	if c.frame != nil {
		t.Fatalf("frame buffer of cap %d kept after an oversized frame", cap(c.frame))
	}
}

// TestRequestBuffersReusedAndDropped checks the request buffers of both
// sides over a real connection: the client keeps its encode buffer across
// normal requests and drops it after an add far above the chunk bound, and
// rows inserted from the server's reused read buffer survive the requests
// read into it afterwards.
func TestRequestBuffersReusedAndDropped(t *testing.T) {
	addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Add("A.r", [][]string{{"small", "1"}}); err != nil {
		t.Fatal(err)
	}
	if kept := cap(c.out); kept == 0 || kept > maxKeptFrameBytes {
		t.Fatalf("request buffer cap %d after a small request; want it kept", kept)
	}
	huge := strings.Repeat("y", 2*maxKeptFrameBytes)
	if _, err := c.Add("A.r", [][]string{{huge, "2"}}); err != nil {
		t.Fatal(err)
	}
	if c.out != nil {
		t.Fatalf("request buffer of cap %d kept after an oversized request", cap(c.out))
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Add("A.r", [][]string{{strings.Repeat("z", 64), strconv.Itoa(3 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Scan("A.r")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"1": "small", "2": huge, "3": strings.Repeat("z", 64)}
	seen := 0
	for _, tup := range got {
		if w, ok := want[tup[1]]; ok {
			seen++
			if tup[0] != w {
				t.Fatalf("row %s came back as %d bytes %.20q", tup[1], len(tup[0]), tup[0])
			}
		}
	}
	if len(got) != 5 || seen != 3 {
		t.Fatalf("scan returned %d rows, %d of them checked; want 5 and 3", len(got), seen)
	}
}
