// Package netlist models the input to WRONoC router synthesis: an
// application consisting of network nodes with physical placements and the
// set of directed messages (signal paths to reserve) between them.
//
// It also ships the seven benchmark applications evaluated in the SRing
// paper (MWD, VOPD, MPEG, D26, 8PM-24, 8PM-32, 8PM-44) and deterministic
// generators for synthetic workloads.
package netlist

import (
	"errors"
	"fmt"
	"sort"

	"sring/internal/geom"
)

// NodeID identifies a node within an application. IDs are dense indices
// 0..len(Nodes)-1 after validation.
type NodeID int

// Node is a network endpoint (a processing element, memory, or IP block)
// with a fixed physical location on the optical layer.
type Node struct {
	ID   NodeID
	Name string
	Pos  geom.Point // millimetres
}

// Message is a directed communication requirement: Src must be able to send
// to Dst on a dedicated wavelength-routed signal path.
type Message struct {
	Src, Dst NodeID
	// Bandwidth is the requested bandwidth in MB/s. It is informational:
	// WRONoC path reservation is per-message regardless of bandwidth, but
	// benchmarks carry the literature values.
	Bandwidth float64
}

// Application is a complete synthesis input.
type Application struct {
	Name     string
	Nodes    []Node
	Messages []Message
}

// Validate checks structural invariants: at least two nodes, dense node IDs
// matching slice positions, distinct positions, messages referencing valid
// nodes, no self-messages, and no duplicate (src, dst) pairs.
func (a *Application) Validate() error {
	if len(a.Nodes) < 2 {
		return fmt.Errorf("netlist: application %q needs at least 2 nodes, has %d", a.Name, len(a.Nodes))
	}
	for i, n := range a.Nodes {
		if int(n.ID) != i {
			return fmt.Errorf("netlist: node %d has ID %d, want dense IDs", i, n.ID)
		}
	}
	for i := range a.Nodes {
		for j := i + 1; j < len(a.Nodes); j++ {
			if a.Nodes[i].Pos.Eq(a.Nodes[j].Pos) {
				return fmt.Errorf("netlist: nodes %q and %q share position %v",
					a.Nodes[i].Name, a.Nodes[j].Name, a.Nodes[i].Pos)
			}
		}
	}
	if len(a.Messages) == 0 {
		return errors.New("netlist: application has no messages")
	}
	seen := make(map[[2]NodeID]bool, len(a.Messages))
	for _, m := range a.Messages {
		if m.Src < 0 || int(m.Src) >= len(a.Nodes) || m.Dst < 0 || int(m.Dst) >= len(a.Nodes) {
			return fmt.Errorf("netlist: message %d->%d references unknown node", m.Src, m.Dst)
		}
		if m.Src == m.Dst {
			return fmt.Errorf("netlist: self-message at node %d", m.Src)
		}
		key := [2]NodeID{m.Src, m.Dst}
		if seen[key] {
			return fmt.Errorf("netlist: duplicate message %d->%d", m.Src, m.Dst)
		}
		seen[key] = true
	}
	return nil
}

// N returns the number of nodes (#N in the paper's Table I).
func (a *Application) N() int { return len(a.Nodes) }

// M returns the number of messages (#M in the paper's Table I).
func (a *Application) M() int { return len(a.Messages) }

// Density is the communication density #M / #N used in the paper's
// discussion of wavelength usage.
func (a *Application) Density() float64 {
	if len(a.Nodes) == 0 {
		return 0
	}
	return float64(len(a.Messages)) / float64(len(a.Nodes))
}

// Pos returns the position of node id.
func (a *Application) Pos(id NodeID) geom.Point { return a.Nodes[id].Pos }

// Adjacency returns, for each node, the sorted set of nodes it communicates
// with in either direction (the adjacency of graph G).
func (a *Application) Adjacency() map[NodeID][]NodeID {
	set := make(map[NodeID]map[NodeID]bool)
	add := func(u, v NodeID) {
		if set[u] == nil {
			set[u] = make(map[NodeID]bool)
		}
		set[u][v] = true
	}
	for _, m := range a.Messages {
		add(m.Src, m.Dst)
		add(m.Dst, m.Src)
	}
	adj := make(map[NodeID][]NodeID, len(set))
	for u, vs := range set {
		list := make([]NodeID, 0, len(vs))
		for v := range vs {
			list = append(list, v)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		adj[u] = list
	}
	return adj
}

// ActiveNodes returns the sorted IDs of nodes that send or receive at least
// one message. Idle nodes need no senders, receivers, or ring membership.
func (a *Application) ActiveNodes() []NodeID {
	seen := make(map[NodeID]bool)
	for _, m := range a.Messages {
		seen[m.Src] = true
		seen[m.Dst] = true
	}
	ids := make([]NodeID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Senders returns the sorted IDs of nodes that originate at least one
// message.
func (a *Application) Senders() []NodeID {
	seen := make(map[NodeID]bool)
	for _, m := range a.Messages {
		seen[m.Src] = true
	}
	ids := make([]NodeID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// MaxCommDistance returns the maximum Manhattan distance between any two
// communicating nodes: the paper's d1, the lower end of the L_max search
// range.
func (a *Application) MaxCommDistance() float64 {
	var d float64
	for _, m := range a.Messages {
		if dist := a.Pos(m.Src).Manhattan(a.Pos(m.Dst)); dist > d {
			d = dist
		}
	}
	return d
}

// MessagesFrom returns the messages originating at node id.
func (a *Application) MessagesFrom(id NodeID) []Message {
	var out []Message
	for _, m := range a.Messages {
		if m.Src == id {
			out = append(out, m)
		}
	}
	return out
}

// Clone returns a deep copy of the application.
func (a *Application) Clone() *Application {
	cp := &Application{Name: a.Name}
	cp.Nodes = append([]Node(nil), a.Nodes...)
	cp.Messages = append([]Message(nil), a.Messages...)
	return cp
}

// String summarises the application as "name (#N nodes, #M messages)".
func (a *Application) String() string {
	return fmt.Sprintf("%s (#N=%d, #M=%d)", a.Name, a.N(), a.M())
}
