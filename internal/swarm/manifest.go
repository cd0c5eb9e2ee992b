package swarm

import (
	"encoding/json"
	"fmt"
	"os"
)

// Manifest is the on-disk handoff from a serving swarm (cmd/swarm) to
// an external driver (cmd/loadgen -swarm): the generation parameters — which
// fully determine the spec, so the driver regenerates it rather than
// shipping the whole specification — plus the live peer addresses, the
// entry peer's address, and the generated entry query.
type Manifest struct {
	Params Params   `json:"params"`
	Addrs  []string `json:"addrs"`
	Entry  string   `json:"entry"`
	Query  string   `json:"query"`
}

// Manifest assembles the handoff document for a booted swarm.
func (n *Net) Manifest() Manifest {
	return Manifest{
		Params: n.Spec.Params,
		Addrs:  append([]string(nil), n.Addrs...),
		Entry:  n.Addrs[0],
		Query:  n.Spec.Query,
	}
}

// WriteManifest writes the manifest as indented JSON to path.
func (m Manifest) WriteManifest(path string) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// LoadManifest reads a manifest written by WriteManifest and regenerates its
// spec, verifying the regenerated query matches the manifest's (a cheap
// whole-spec determinism check: a version skew between writer and reader
// that changes generation shows up here instead of as wrong answers).
func LoadManifest(path string) (Manifest, *Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, nil, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return Manifest{}, nil, fmt.Errorf("swarm: manifest %s: %w", path, err)
	}
	if len(m.Addrs) == 0 || m.Entry == "" {
		return Manifest{}, nil, fmt.Errorf("swarm: manifest %s has no peer addresses", path)
	}
	spec, err := Generate(m.Params)
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("swarm: manifest %s: %w", path, err)
	}
	if len(m.Addrs) != spec.Params.Peers {
		return Manifest{}, nil, fmt.Errorf("swarm: manifest %s lists %d addresses for %d peers", path, len(m.Addrs), spec.Params.Peers)
	}
	if m.Query != spec.Query {
		return Manifest{}, nil, fmt.Errorf("swarm: manifest %s query %q does not match regenerated spec query %q (generator version skew?)", path, m.Query, spec.Query)
	}
	return m, spec, nil
}
