// Package ctxflow defines a module-level noisevet analyzer that turns
// the resilience layer's hand-audited cancellation contract into a
// machine-checked invariant: every loop-bearing function on a
// cancellable path must observe its context.
//
// The contract exists because the exit-code-3 guarantee ("a deadline
// against a multi-second analysis exits promptly, never hangs") is only
// as strong as the least attentive loop between an entry point and the
// per-event work. A function that accepts a context and then spins
// without consulting it reintroduces exactly the unbounded stall the
// resilience layer exists to prevent — and nothing local to the
// function makes that visible.
//
// From the configured entry-point roots (AnalyzeParallel, AnalyzeRaw,
// AnalyzeStream, SummarizeStream, ReadParallel, cluster.Run), the
// analyzer computes the set of functions reachable over static calls,
// goroutine spawns, defers, and closures. Inside that set it reports:
//
//   - a function that accepts a context.Context and contains a loop
//     but neither observes cancellation itself (ctx.Err, ctx.Done)
//     nor passes its context to a callee that transitively does. The
//     judgment is per function, not per loop: bounded housekeeping
//     loops next to a stride-checked event loop are fine.
//   - a call that discards the context in scope by passing
//     context.Background() or context.TODO() downward instead.
//
// "Transitively observes" is a bottom-up summary over the call graph
// (see internal/analysis/summary), so the per-CPU drivers that check
// cancellation every cancelStride events through a helper satisfy the
// rule without annotation.
//
// Functions that never receive a context — per-event leaf kernels like
// cpuWalker.step — are deliberately out of scope: the contract is that
// cancellation is checked at stride boundaries in the drivers that DO
// hold the context, not in every leaf.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"osnoise/internal/analysis"
	"osnoise/internal/analysis/callgraph"
	"osnoise/internal/analysis/summary"
)

// Config parameterizes the analyzer.
type Config struct {
	// Roots are the node names (callgraph.FuncName form:
	// "pkgpath.Func" or "pkgpath.Type.Method") of the context-accepting
	// entry points. Roots missing from the build (for instance a
	// package excluded from a partial load) are skipped.
	Roots []string
}

// New returns a ctxflow analyzer with the given entry-point roots.
func New(cfg Config) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "ctxflow",
		Doc: "ctxflow: loops on cancellable paths must observe their context\n\n" +
			"From the configured entry points, every reachable function that accepts\n" +
			"a context.Context and contains a loop must check ctx.Err/ctx.Done or\n" +
			"pass the context to a callee that transitively does; passing\n" +
			"context.Background()/TODO() while a context is in scope is flagged too.",
	}
	a.RunModule = func(pass *analysis.ModulePass) error { return run(pass, cfg) }
	return a
}

// followed selects the edges cancellation-flow facts travel along:
// static transfers (plain, go, defer) and closures. Interface dispatch
// and escaped references prove nothing about which body actually runs,
// so they propagate neither reachability nor summaries here.
func followed(e *callgraph.Edge) bool {
	switch e.Kind {
	case callgraph.KindStatic, callgraph.KindGo, callgraph.KindDefer, callgraph.KindClosure:
		return true
	}
	return false
}

func run(pass *analysis.ModulePass, cfg Config) error {
	g := callgraph.Of(pass.Module)

	var roots []*callgraph.Node
	for _, name := range cfg.Roots {
		if n := g.NodeByName(name); n != nil {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}

	reach := make(map[*callgraph.Node]bool)
	stack := append([]*callgraph.Node(nil), roots...)
	for _, r := range roots {
		reach[r] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if followed(e) && !reach[e.Callee] {
				reach[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}

	// observes[n]: n checks cancellation itself, or hands its context
	// to a callee that does. Bottom-up fixpoint so mutual recursion and
	// deep driver→helper chains resolve without annotation.
	observes := summary.Compute(g, followed, func(n *callgraph.Node, get func(*callgraph.Node) bool) bool {
		if observesDirectly(n) {
			return true
		}
		found := false
		n.Walk(func(m ast.Node) bool {
			if found {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			targets, _ := g.CalleesOf(call)
			if len(targets) == 0 || !passesContext(n.Pkg.Info, call) {
				return true
			}
			for _, target := range targets {
				if get(target) {
					found = true
					break
				}
			}
			return true
		})
		if found {
			return true
		}
		// A literal defined here captures the context lexically; if it
		// observes, the defining function's loop structure is covered
		// by it (worker-spawn loops hand the event loop to the
		// closure). This holds whether the literal is stored, invoked
		// in place, or spawned with go/defer — Parent identifies all of
		// them.
		for _, e := range n.Out {
			if e.Callee.Parent == n && get(e.Callee) {
				return true
			}
		}
		return false
	})

	for _, n := range g.Nodes {
		if !reach[n] || n.Pkg == nil || !n.Pkg.Target {
			continue
		}
		checkDroppedContext(pass, n)
		if n.CtxParam() == nil {
			continue
		}
		if hasLoop(n) && !observes[n] {
			pass.Reportf(n.Pos(), "cancellable path: %s loops but never observes its context (no ctx.Err/ctx.Done here or in any callee it passes ctx to)", shortName(n))
		}
	}
	return nil
}

// observesDirectly reports whether the body itself consults
// cancellation: a .Err() or .Done() selection on a context-typed value.
func observesDirectly(n *callgraph.Node) bool {
	info := n.Pkg.Info
	found := false
	n.Walk(func(m ast.Node) bool {
		if found {
			return false
		}
		sel, ok := m.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
			return true
		}
		if t := info.TypeOf(sel.X); t != nil && isContextType(t) {
			found = true
			return false
		}
		return true
	})
	return found
}

// passesContext reports whether any argument of the call has type
// context.Context.
func passesContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if t := info.TypeOf(arg); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// checkDroppedContext flags context.Background()/TODO() passed as a
// call argument inside a function that already holds a context.
func checkDroppedContext(pass *analysis.ModulePass, n *callgraph.Node) {
	if n.CtxParam() == nil {
		return
	}
	info := n.Pkg.Info
	n.Walk(func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
				continue
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				continue
			}
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "context" {
				pass.Reportf(inner.Pos(), "cancellable path: context.%s() discards the context in scope; pass ctx down instead", sel.Sel.Name)
			}
		}
		return true
	})
}

// hasLoop reports whether the node's own body (nested literals
// excluded — they are judged as their own nodes) contains a for or
// range statement.
func hasLoop(n *callgraph.Node) bool {
	found := false
	n.Walk(func(m ast.Node) bool {
		switch m.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// shortName strips the package path off a node name for readable
// diagnostics ("noise.AnalyzeRaw$1" rather than the full import path).
func shortName(n *callgraph.Node) string {
	name := n.Name
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
