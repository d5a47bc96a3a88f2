// Package obs is the study pipeline's observability layer: typed
// counters, gauges, and fixed-bucket histograms collected in a
// [Registry], plus stage-scoped [Span] trees threaded through
// core.Run/RunPortal, the CKAN fetch pipeline, and the worker pool.
// It is dependency-free (stdlib only) and exports snapshots in human
// text, JSON, and the Prometheus text exposition format.
//
// # Determinism contract
//
// obs is bound by the same ogdplint determinism contract as the study
// packages (core, join, fd, ...): nothing in this package reads the
// wall clock. Two consequences shape the API:
//
//   - [Registry.Snapshot] emits metrics in sorted-name order, counter
//     values are integers, and histogram sums accumulate in integer
//     micro-units, so the rendered snapshot is byte-identical across
//     reruns and worker counts whenever the recorded values are
//     themselves deterministic (task counts, bytes, retry outcomes,
//     seeded backoff delays — never measured wall time).
//   - durations flow in from the caller. A [Span] only accumulates
//     wall time when its trace was built with [NewTimedTrace], whose
//     clock the cmd/ layer injects (the -trace flag arms time.Now);
//     the default [NewTrace] records counts and bytes only, so the
//     span tree printed by -metrics stays byte-identical too.
//
// Diagnostic telemetry that is inherently scheduling-dependent —
// per-worker task counts, queue depth ([PoolStats]), measured request
// latencies — is only recorded when the operator arms it, keeping the
// default -metrics output inside the contract.
//
// # Serving
//
// [NewDebugHandler] exposes the registry at /metrics (Prometheus text
// format) alongside the net/http/pprof profiles; the long-running
// fetch CLI (ogdpfetch) mounts it behind -debug-addr.
//
// The paper (Usta, Liu, Salihoğlu, EDBT 2024) reports per-portal,
// per-stage funnel numbers (Tables 1–2); this package is how the
// reproduction accounts for the same stages mechanically.
package obs
