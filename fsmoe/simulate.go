package fsmoe

import (
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// Re-exported scheduling vocabulary.
type (
	// Cluster is a testbed description.
	Cluster = topology.Cluster
	// Scenario is a parallelism layout on a cluster.
	Scenario = topology.Scenario
	// System names a scheduling system.
	System = core.System
	// Models is the fitted performance-model set the scheduler consumes.
	Models = core.Models
	// Volumes describes one generalized layer's work.
	Volumes = core.Volumes
	// LayerSpec is one layer of a scheduled model.
	LayerSpec = core.LayerSpec
	// BuildOptions tunes schedule construction.
	BuildOptions = core.BuildOptions
	// IterationResult is one simulated training iteration.
	IterationResult = core.IterationResult
	// ModelSpec is a real-world model preset.
	ModelSpec = workload.ModelSpec
	// WorkloadConfig is one Table 4 layer configuration.
	WorkloadConfig = workload.Config
	// DegreeResult is Algorithm 1's output.
	DegreeResult = core.DegreeResult
	// GarPlan is the adaptive gradient-partitioning outcome (§5).
	GarPlan = core.GarPlan
)

// The six scheduling systems of §6.
const (
	SystemDSMoE         = core.SystemDSMoE
	SystemTutel         = core.SystemTutel
	SystemTutelImproved = core.SystemTutelImproved
	SystemLina          = core.SystemLina
	SystemFSMoENoIIO    = core.SystemFSMoENoIIO
	SystemFSMoE         = core.SystemFSMoE
)

// AllSystems lists every scheduler in evaluation order.
func AllSystems() []System { return core.AllSystems() }

// TestbedA returns the paper's 48-GPU cluster preset (6 × 8 A6000).
func TestbedA() *Cluster { return topology.TestbedA() }

// GPT2XLMoE and Mixtral7B are §6.4 model presets.
func GPT2XLMoE(c *Cluster) ModelSpec { return workload.GPT2XLMoE(c) }
func Mixtral7B(c *Cluster) ModelSpec { return workload.Mixtral7B(c) }

// ModelsOf returns the exact scheduler models for a testbed (what a
// perfect profiling run recovers).
func ModelsOf(c *Cluster) Models { return core.ModelsFromCluster(c) }

// CanonicalScenario builds the §4 layout (MP = ESP = one node) with npp
// pipeline stages (0 or 1 for none).
func CanonicalScenario(c *Cluster, npp int) (*Scenario, error) {
	return topology.CanonicalScenario(c, npp)
}

// LayerVolumes derives scheduling volumes for one Table 4 configuration.
func LayerVolumes(cfg WorkloadConfig, s *Scenario) Volumes {
	return workload.VolumesFor(cfg, s)
}

// SimulateLayer runs one configured generalized layer (the Table 5
// experiment unit) under a system and returns the iteration result,
// including the discrete-event trace for Gantt rendering.
func SimulateLayer(c *Cluster, cfg WorkloadConfig, sys System) (*IterationResult, error) {
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		return nil, err
	}
	m := core.ModelsFromCluster(c)
	return m.SimulateSingleLayer(workload.VolumesFor(cfg, s), sys, core.BuildOptions{})
}

// CompareSystems runs every system on the model and returns iteration
// times in milliseconds keyed by system.
func CompareSystems(c *Cluster, spec ModelSpec) (map[System]float64, error) {
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		return nil, err
	}
	return trainsim.Compare(core.ModelsFromCluster(c), spec, s, core.BuildOptions{})
}

// Speedups converts absolute times into ratios over a baseline.
func Speedups(times map[System]float64, base System) map[System]float64 {
	return trainsim.Speedups(times, base)
}

// SimulateLayerPlan returns FSMoE's adaptive gradient partitioning for a
// model (§5): per-layer MoE-window and dense-window byte assignments plus
// the exposed tail.
func SimulateLayerPlan(c *Cluster, spec ModelSpec) (*GarPlan, error) {
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		return nil, err
	}
	m := core.ModelsFromCluster(c)
	res, err := m.SimulateIteration(spec.LayerSpecs(s), core.SystemFSMoE, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return res.Gar, nil
}

// OptimalDegree exposes Algorithm 1 directly: the pipeline degree for a
// layer's volumes with a gradient-aggregation budget tgar (ms), per phase.
func OptimalDegree(c *Cluster, v Volumes, tgar float64, backward bool) DegreeResult {
	m := core.ModelsFromCluster(c)
	phase := core.Forward
	if backward {
		phase = core.Backward
	}
	return m.FindOptimalPipelineDegree(v, tgar, phase, core.MaxPipelineDegree)
}
