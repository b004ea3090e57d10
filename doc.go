// Package quorumkit is a Go implementation of Johnson & Raab, "Finding
// Optimal Quorum Assignments for Distributed Databases" (Dartmouth
// PCS-TR90-158 / ICPP 1991): the quorum consensus protocol, the dynamic
// quorum reassignment (QR) protocol, the optimal quorum assignment
// algorithm of the paper's Figure 1, the on-line component-size estimator
// that makes it practical on general topologies, and the discrete-event
// partition simulator used for the paper's evaluation.
//
// # Background
//
// A replicated data object with one copy per site must behave as if a
// single copy existed: every read must return the most recently written
// value even while failures partition the network. The quorum consensus
// protocol (Gifford 1979) assigns votes to copies and grants a read
// (write) only in a network component holding at least q_r (q_w) votes,
// with q_r + q_w > T and q_w > T/2 for a vote total T. The choice of
// (q_r, q_w) — the quorum assignment — largely determines availability.
//
// Given the read fraction α and the distribution f_i(v) of the vote total
// of the component containing each site i, the paper's algorithm computes
//
//	A(α, q_r) = α·P[read sees ≥ q_r votes] + (1−α)·P[write sees ≥ T−q_r+1 votes]
//
// and selects the maximizing q_r. Exact computation of f_i is #P-complete
// in general, but the densities have closed forms on ring, fully-connected
// and bus networks, and can be approximated on-line for any topology from
// the vote totals observed during normal transaction processing.
//
// # Packages
//
// The facade in this package re-exports the main types; full functionality
// lives in the internal packages:
//
//   - internal/core: availability model, optimizers, on-line estimator
//   - internal/dist: closed-form and Monte-Carlo component-size densities
//   - internal/quorum: assignments, validity conditions, the quorum-
//     expression algebra (coteries and vote thresholds in one type)
//   - internal/graph, internal/topo: dynamic connectivity and the paper's
//     ring-plus-chords topology family
//   - internal/sim: the §5.2 discrete-event simulator and batch studies
//   - internal/replica: replicated object with the QR dynamic
//     reassignment protocol
//   - internal/cluster: message-level distributed implementation
//   - internal/experiments: regeneration of every figure and table
//
// # Quick start
//
//	f := quorumkit.RingDensity(101, 0.96, 0.96) // closed-form f(v)
//	m, _ := quorumkit.ModelFromDensity(f)
//	res := m.Optimize(0.75) // 75% reads
//	fmt.Println(res.Assignment, res.Availability)
//
// See the examples directory for on-line estimation, dynamic
// reassignment, and the write-throughput constraint.
package quorumkit
