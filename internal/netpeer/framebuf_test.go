package netpeer

import (
	"bytes"
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
	frame := func(r wire.Response) []byte { return wire.AppendResponse(nil, &r) }
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
