package moe

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gradsync"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// syncPin is what one step's §5 sync did: the Report's byte and slice
// counts, and per backward plan, in backward order, the label and task id of
// each AllReduce slice it holds.
type syncPin struct {
	report string
	plans  []string
}

func syncSchedule(res *StepResult) syncPin {
	r := res.Report
	pin := syncPin{report: fmt.Sprintf("total %v hidden %v tail %v slices %d+%d",
		r.TotalBytes, r.HiddenBytes, r.TailBytes, r.Slices, r.TailSlices)}
	for _, p := range res.Plans {
		var ars []string
		for _, ti := range p.Tasks() {
			if ti.Kind == gradsync.KindAllReduce {
				ars = append(ars, fmt.Sprintf("%s@%d", ti.Label, ti.ID))
			}
		}
		pin.plans = append(pin.plans, strings.Join(ars, " "))
	}
	return pin
}

// TestStepSyncSchedulePinned pins the §5 schedule a step runs: on a 3-layer
// EP stack at backward pipeline degrees 1, 2 and 4, under each sync strategy
// (Lina's chunks small enough to cut several slices a layer), each of three
// steps reports the pinned byte and slice counts (hidden+tail) and holds the
// pinned AllReduce tasks in each backward plan, by label and id.
func TestStepSyncSchedulePinned(t *testing.T) {
	const full = "total 308736 hidden 205824 tail 102912 slices "
	want := map[string]syncPin{
		"fsmoe-adaptive bwd=1": {full + "6+1", []string{"",
			"AR2[0:8576)@2 AR2[17152:25728)@3 AR2[8576:17152)@9",
			"AR1[0:8576)@2 AR1[17152:25728)@3 AR1[8576:17152)@9"}},
		"fsmoe-adaptive bwd=2": {full + "6+1", []string{"",
			"AR2[0:8576)@3 AR2[8576:17152)@9 AR2[17152:25728)@15",
			"AR1[0:8576)@3 AR1[8576:17152)@9 AR1[17152:25728)@15"}},
		"fsmoe-adaptive bwd=4": {full + "6+1", []string{"",
			"AR2[0:8576)@5 AR2[8576:17152)@11 AR2[17152:25728)@17",
			"AR1[0:8576)@5 AR1[8576:17152)@11 AR1[17152:25728)@17"}},
		"lina-fixed-chunk bwd=1": {full + "10+5", []string{"",
			"AR2[0:6144)@2 AR2[12288:18432)@3 AR2[24576:25728)@4 AR2[6144:12288)@10 AR2[18432:24576)@11",
			"AR1[0:6144)@2 AR1[12288:18432)@3 AR1[24576:25728)@4 AR1[6144:12288)@10 AR1[18432:24576)@11"}},
		"lina-fixed-chunk bwd=2": {full + "10+5", []string{"",
			"AR2[0:6144)@3 AR2[18432:24576)@4 AR2[6144:12288)@10 AR2[24576:25728)@11 AR2[12288:18432)@17",
			"AR1[0:6144)@3 AR1[18432:24576)@4 AR1[6144:12288)@10 AR1[24576:25728)@11 AR1[12288:18432)@17"}},
		"lina-fixed-chunk bwd=4": {full + "10+5", []string{"",
			"AR2[0:6144)@5 AR2[6144:12288)@11 AR2[12288:18432)@17 AR2[18432:24576)@23 AR2[24576:25728)@29",
			"AR1[0:6144)@5 AR1[6144:12288)@11 AR1[12288:18432)@17 AR1[18432:24576)@23 AR1[24576:25728)@29"}},
		"no-overlap bwd=1": {"total 308736 hidden 0 tail 308736 slices 0+3", []string{"", "", ""}},
		"no-overlap bwd=2": {"total 308736 hidden 0 tail 308736 slices 0+3", []string{"", "", ""}},
		"no-overlap bwd=4": {"total 308736 hidden 0 tail 308736 slices 0+3", []string{"", "", ""}},
	}
	x := tensor.RandN(xrand.New(401), 1, 96, 32)
	dy := tensor.RandN(xrand.New(402), 1e-3, 96, 32)
	for _, strat := range []gradsync.Strategy{gradsync.StrategyFSMoE, gradsync.StrategyFixedChunk, gradsync.StrategyNoOverlap} {
		for _, bwd := range []int{1, 2, 4} {
			ws := make([]*World, 3)
			for i := range ws {
				w, err := NewWorld(worldLayer(t, "gshard", TutelOrder{}, false, false),
					WorldConfig{Ranks: 4, PipelineDegree: 2, PipelineDegreeBwd: bwd, Strategy: StrategyEP})
				if err != nil {
					t.Fatal(err)
				}
				ws[i] = w
			}
			cfg := StepConfig{LR: 0.05, Strategy: strat, ChunkBytes: 24 << 10, Slices: 3}
			label := fmt.Sprintf("%s bwd=%d", strat, bwd)
			pin := want[label]
			for s := 0; s < 3; s++ {
				res, err := StepWorlds(ws, x, dy, cfg)
				if err != nil {
					t.Fatalf("%s step %d: %v", label, s, err)
				}
				if got := syncSchedule(res); got.report != pin.report || !slices.Equal(got.plans, pin.plans) {
					t.Errorf("%s step %d:\n%s\n%q\nwant\n%s\n%q", label, s, got.report, got.plans, pin.report, pin.plans)
				}
			}
		}
	}
}
