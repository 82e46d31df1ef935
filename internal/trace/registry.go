package trace

import "sort"

// regKey identifies one metric instance. A struct key (not a formatted
// string) keeps Add allocation-free on hot paths; callers cache
// their label strings once (device class, gateway name) and reuse them.
type regKey struct {
	name  string
	label string
}

// Metric is one (name, label, value) row of a registry snapshot.
type Metric struct {
	Name  string
	Label string
	Value int64
}

// Registry aggregates counters under a label such as a device class or a
// node. It holds only counts no other store keeps: a session's registry
// carries eager and rendez-vous messages per device class (core) and
// trunk wait per node (netsim, the trunk-wait column of
// stats.RelayTable); totals that live in a device field or a network's
// Stats are not duplicated here. Like the Tracer, all methods are
// nil-safe so instrumented code needs no wiring checks; unlike the
// Tracer, sessions always carry a registry, tracing or not.
type Registry struct {
	m map[regKey]*Metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[regKey]*Metric{}}
}

func (r *Registry) metric(name, label string) *Metric {
	k := regKey{name, label}
	m := r.m[k]
	if m == nil {
		m = &Metric{Name: name, Label: label}
		r.m[k] = m
	}
	return m
}

// Add accumulates v into the (name, label) counter.
func (r *Registry) Add(name, label string, v int64) {
	if r == nil {
		return
	}
	r.metric(name, label).Value += v
}

// Get reads a metric, zero if absent (or the registry is nil).
func (r *Registry) Get(name, label string) int64 {
	if r == nil {
		return 0
	}
	if m := r.m[regKey{name, label}]; m != nil {
		return m.Value
	}
	return 0
}

// Snapshot returns every metric sorted by (name, label) — a
// deterministic structured export regardless of map order.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.m))
	for _, m := range r.m {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Label < out[j].Label
	})
	return out
}
