// Package repro is a from-scratch Go reproduction of "FSMoE: A Flexible
// and Scalable Training System for Sparse Mixture-of-Experts Models"
// (Pan et al., ASPLOS 2025).
//
// The public API lives in repro/fsmoe; the harness regenerating every
// table and figure of the paper's evaluation (and the chaos table) lives
// in cmd/fsmoe-bench and in the root-level bench_test.go; every machine
// measurement of the executable runtime — overlap, simulator gap,
// gradient sync, Algorithm 1's picks, telemetry — lives in the repository
// benchmark that judges a commit against its parent, bench/. See README.md, the fsmoe
// package documentation and bench/README.md.
package repro
