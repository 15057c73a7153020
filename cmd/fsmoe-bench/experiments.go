package main

import (
	"fmt"
	"sort"
	"strings"
)

// experimentTable is the single dispatch table behind -experiment: every
// runnable experiment keyed by name. The int argument is the Table 4
// sampling stride; experiments that ignore it discard it.
func experimentTable() map[string]func(int) error {
	return map[string]func(int) error{
		"table2":  func(int) error { return table2() },
		"table5":  table5,
		"table6":  func(int) error { return table6() },
		"fig4":    func(int) error { return fig4() },
		"fig5":    func(int) error { return fig5() },
		"fig6":    func(int) error { return fig6() },
		"fig7":    func(int) error { return fig7() },
		"fig8":    func(int) error { return fig8() },
		"degrees": degrees,
		"chaos":   chaosExperiment,
	}
}

// allOrder is the presentation order of "-experiment all" — the simulated
// paper experiments. chaos executes real multi-rank compute and is run
// explicitly, not as part of the paper sweep.
func allOrder() []string {
	return []string{"table2", "fig4", "fig5", "table5", "fig6", "fig7", "fig8", "table6", "degrees"}
}

// validExperimentNames lists every accepted -experiment value, sorted,
// with "all" first.
func validExperimentNames() []string {
	names := make([]string, 0, len(experimentTable())+1)
	for name := range experimentTable() {
		names = append(names, name)
	}
	sort.Strings(names)
	return append([]string{"all"}, names...)
}

// lookupExperiments resolves an -experiment value to the list of
// experiment names to run, or an error naming every valid choice.
func lookupExperiments(name string) ([]string, error) {
	if name == "all" {
		return allOrder(), nil
	}
	if _, ok := experimentTable()[name]; !ok {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(validExperimentNames(), ", "))
	}
	return []string{name}, nil
}
