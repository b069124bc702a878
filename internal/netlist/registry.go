package netlist

import (
	"fmt"
	"strings"
)

// The builtin-app registry: the single place commands (cmd/sring,
// cmd/serve, cmd/sweep) resolve named applications from, instead of
// per-command switch statements. It spans the seven paper benchmarks, the
// four extension task graphs, and the large synthetic scale apps.

// Apps returns every registered builtin application: paper benchmarks in
// Table I order, then the extended task graphs, then the scale apps.
// Each call builds fresh Application values, so callers may mutate them.
func Apps() []*Application {
	var all []*Application
	all = append(all, Benchmarks()...)
	all = append(all, Extended()...)
	all = append(all, Scale()...)
	return all
}

// Names returns the names of all registered builtin applications, in
// registry order.
func Names() []string {
	apps := Apps()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// ByName returns the builtin application with the given (case-sensitive)
// name — paper benchmark, extended task graph, or scale app — or an error
// listing the available names.
func ByName(name string) (*Application, error) {
	for _, b := range Apps() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("netlist: unknown benchmark %q (available: %s)",
		name, strings.Join(Names(), ", "))
}
