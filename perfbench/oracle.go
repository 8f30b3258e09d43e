package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// answer is the oracle for one traversal: the serial baseline's labels and
// the work a correct traversal does.
type answer struct {
	kernel string
	source uint32
	labels []graph.Dist // level, distance, or component id; InfDist = unreached
	edges  uint64       // out-degrees of reached vertices, summed
}

// oracle computes the serial baseline answer for one traversal of g:
// SerialBFS levels, SerialDijkstra distances, or SerialCC labels.
func oracle(g *graph.CSR[uint32], kernel string, src uint32) (*answer, error) {
	a := &answer{kernel: kernel, source: src}
	var err error
	switch kernel {
	case "bfs":
		a.labels, err = baseline.SerialBFS[uint32](g, src)
	case "sssp":
		a.labels, _, err = baseline.SerialDijkstra[uint32](g, src)
	case "cc":
		var ids []uint32
		if ids, err = baseline.SerialCC[uint32](g); err == nil {
			a.labels = ccLabels(ids)
		}
	default:
		err = fmt.Errorf("unknown kernel %q", kernel)
	}
	if err != nil {
		return nil, fmt.Errorf("oracle %s from %d: %w", kernel, src, err)
	}
	for v, l := range a.labels {
		if l != graph.InfDist {
			a.edges += uint64(g.Degree(uint32(v)))
		}
	}
	return a, nil
}

// ccLabels widens component ids to labels, mapping NoVertex to InfDist the
// way the server does, so every kernel compares the same way.
func ccLabels(ids []uint32) []graph.Dist {
	labels := make([]graph.Dist, len(ids))
	no := graph.NoVertex[uint32]()
	for i, id := range ids {
		labels[i] = graph.InfDist
		if id != no {
			labels[i] = graph.Dist(id)
		}
	}
	return labels
}

// matches reports whether a traversal's labels equal the oracle's.
func (a *answer) matches(got []graph.Dist) bool { return slices.Equal(a.labels, got) }

// selfTest proves the checker catches a wrong answer: a traversal result
// with one corrupted label must not match its oracle, whether it arrives
// as a label array or as the targets of a served reply.
func selfTest() error {
	g, err := graph.FromEdges[uint32](4, true, true, []graph.Edge[uint32]{
		{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 2}, {Src: 0, Dst: 2, W: 5}, {Src: 2, Dst: 3, W: 1},
	})
	if err != nil {
		return err
	}
	for _, kernel := range []string{"bfs", "sssp", "cc"} {
		a, err := oracle(g, kernel, 0)
		if err != nil {
			return err
		}
		bad := slices.Clone(a.labels)
		bad[len(bad)-1]++
		good, err := asReply(a.labels)
		if err != nil {
			return err
		}
		corrupt, err := asReply(bad)
		if err != nil {
			return err
		}
		if !a.matches(a.labels) || a.matches(bad) || !a.matches(good.labels()) || a.matches(corrupt.labels()) {
			return fmt.Errorf("self-test: the %s checker does not catch a corrupted label", kernel)
		}
	}
	return nil
}

// asReply encodes labels the way the server answers a query that names
// every vertex as a target, and decodes the reply.
func asReply(labels []graph.Dist) (*replyBody, error) {
	type target struct {
		Vertex  int        `json:"vertex"`
		Reached bool       `json:"reached"`
		Value   graph.Dist `json:"value"`
	}
	ts := make([]target, len(labels))
	for v, l := range labels {
		ts[v] = target{Vertex: v, Reached: l != graph.InfDist}
		if ts[v].Reached {
			ts[v].Value = l
		}
	}
	raw, err := json.Marshal(map[string]any{"targets": ts})
	if err != nil {
		return nil, err
	}
	var b replyBody
	return &b, json.Unmarshal(raw, &b)
}
