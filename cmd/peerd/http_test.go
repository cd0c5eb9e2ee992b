package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestHandlerEndpoints(t *testing.T) {
	r := obs.NewRegistry()
	var count obs.Counter
	count.Add(5)
	r.RegisterCounter("x.count", &count)
	tr := obs.NewTracer(4)
	tr.SetSampleEvery(1)
	s := tr.StartTrace("probe-query")
	s.End()
	srv := httptest.NewServer(handler(r, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	var snap obs.SnapshotData
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["x.count"] != 5 {
		t.Fatalf("x.count = %d, want 5", snap.Counters["x.count"])
	}

	code, body = get("/metrics?format=prometheus")
	if code != 200 || !strings.Contains(body, "x_count 5") {
		t.Fatalf("/metrics prometheus status %d body:\n%s", code, body)
	}

	code, body = get("/debug/traces")
	if code != 200 || !strings.Contains(body, "probe-query") {
		t.Fatalf("/debug/traces status %d body:\n%s", code, body)
	}

	// Adjust sampling through the endpoint.
	if code, _ = get("/debug/traces?sample=10"); code != 200 {
		t.Fatalf("sample adjust status %d", code)
	}
	if tr.SampleEvery() != 10 {
		t.Fatalf("sample knob = %d, want 10", tr.SampleEvery())
	}

	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof status %d", code)
	}
}
