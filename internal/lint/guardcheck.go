package lint

// guardcheck: guarded-comm discipline. PR 6's in-collective fault
// injection reaches a collective only through a comm.Guard (the guard runs
// before the first byte moves, so a transient failure retries bit-safely).
// The block-endpoint collectives take the guard as a parameter and cannot
// be called without one; the dense forms that predate them keep a
// …Guarded twin each, and a plan-builder that calls the unguarded twin
// compiles and passes every bit-identity test — and silently opts its
// collective out of chaos coverage. Inside the plan-builder packages, any
// direct call to a comm function F that takes no Guard and for which comm
// declares FGuarded is therefore a diagnostic.
//
// Deliberate exceptions (e.g. a sequential-baseline tail that receives its
// fault injection at the task level instead) carry an explicit
//
//	//fsmoe:allow guardcheck <reason>
//
// comment; there is no implicit allowlist.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// commPkgPath is the collective library whose Guarded twins the rule keys
// on.
const commPkgPath = "repro/internal/comm"

// guardScopes lists the packages whose plan-building code must call
// guarded collectives: the strategy builders in internal/moe and the
// AllReduce-slice emission in internal/gradsync. (Tests may widen this
// for fixtures.)
var guardScopes = []string{
	"repro/internal/moe",
	"repro/internal/gradsync",
}

// guardedTwin names the collective whose Guarded variant stands in for a
// function that has none under its own name: the updating ring is the
// general form of RingAllReduceChunk.
var guardedTwin = map[string]string{"RingAllReduceUpdate": "RingAllReduceChunk"}

// GuardCheck is the guarded-collective analyzer.
var GuardCheck = &Analyzer{
	Name: "guardcheck",
	Doc:  "flag unguarded comm collectives (where a *Guarded variant exists) in strategy plan-builders",
	Run:  runGuardCheck,
}

func inGuardScope(path string) bool {
	for _, s := range guardScopes {
		if path == s {
			return true
		}
	}
	return false
}

func runGuardCheck(p *Package) []Diagnostic {
	if !inGuardScope(p.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pkgSelector(p.Info, call, commPkgPath)
			if !ok || strings.HasSuffix(name, "Guarded") {
				return true
			}
			obj := p.Info.Uses[call.Fun.(*ast.SelectorExpr).Sel]
			if obj == nil || obj.Pkg() == nil || takesGuard(obj) {
				return true
			}
			twin := name
			if t, ok := guardedTwin[name]; ok {
				twin = t
			}
			if obj.Pkg().Scope().Lookup(twin+"Guarded") == nil {
				return true // no guarded twin; plain helper
			}
			out = append(out, Diagnostic{
				Pos:      p.Fset.Position(call.Pos()),
				Analyzer: "guardcheck",
				Message: fmt.Sprintf("unguarded collective comm.%s: call comm.%sGuarded so in-collective fault injection reaches it (or annotate //fsmoe:allow guardcheck <reason>)",
					name, twin),
			})
			return true
		})
	}
	return out
}

// takesGuard reports whether obj is a function with a comm.Guard parameter:
// guarded by construction, whatever other names exist beside it.
func takesGuard(obj types.Object) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if named, ok := sig.Params().At(i).Type().(*types.Named); ok &&
			named.Obj().Name() == "Guard" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == commPkgPath {
			return true
		}
	}
	return false
}
