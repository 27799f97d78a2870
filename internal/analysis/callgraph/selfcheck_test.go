package callgraph

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"

	"osnoise/internal/analysis"
)

// repoRoot walks up from the working directory to the directory holding
// go.mod, so the test can load the whole module regardless of where the
// test binary runs.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// TestSelfValidation builds the call graph of this entire repository
// and checks the structural soundness invariants on every node, edge,
// and call site. It is the companion of cfg.TestSelfValidation one
// layer up: the analyzers built on the graph are only as trustworthy as
// the resolution of every call site in the module.
func TestSelfValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load is slow; skipped with -short")
	}
	root := repoRoot(t)
	pkgs, fset, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	g := Build(fset, pkgs)

	// Scale floor: the repository is not small. If the loader or the
	// builder silently drops packages, these trip long before any
	// subtle invariant does.
	if len(g.Nodes) < 300 {
		t.Errorf("only %d nodes; the module has far more functions", len(g.Nodes))
	}
	if g.Stats.Calls < 2000 {
		t.Errorf("only %d call sites; the module has far more calls", g.Stats.Calls)
	}

	// Every call expression classified exactly once.
	s := g.Stats
	sum := s.Static + s.Interface + s.Dynamic + s.Builtin + s.Conversion + s.External + s.Unresolved
	if sum != s.Calls {
		t.Errorf("classification not a partition: %d classified vs %d sites (%+v)", sum, s.Calls, s)
	}
	if s.Unresolved != 0 {
		t.Errorf("%d unresolved call sites; every site in the module must classify (%+v)", s.Unresolved, s)
	}
	for _, class := range []struct {
		name string
		n    int
	}{
		{"static", s.Static},
		{"interface", s.Interface},
		{"dynamic", s.Dynamic},
		{"builtin", s.Builtin},
		{"conversion", s.Conversion},
		{"external", s.External},
	} {
		if class.n == 0 {
			t.Errorf("no %s call sites found; the module is known to contain them", class.name)
		}
	}

	// Node-local invariants.
	names := make(map[string]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		if prev, dup := names[n.Name]; dup {
			t.Errorf("duplicate node name %q (%v and %v)", n.Name, prev.Pos(), n.Pos())
		}
		names[n.Name] = n
		if g.NodeByName(n.Name) != n {
			t.Errorf("NodeByName(%q) does not round-trip", n.Name)
		}
		switch {
		case n.Decl != nil:
			if n.Lit != nil || n.Parent != nil {
				t.Errorf("%s: declared node carries literal fields", n.Name)
			}
			if n.Obj != nil && g.NodeOf(n.Obj) != n {
				t.Errorf("%s: NodeOf(Obj) does not round-trip", n.Name)
			}
			if n.Body() == nil {
				t.Errorf("%s: declared node without body", n.Name)
			}
		case n.Lit != nil:
			if n.Parent == nil {
				t.Errorf("%s: literal node without parent", n.Name)
			}
			if g.NodeOfLit(n.Lit) != n {
				t.Errorf("%s: NodeOfLit does not round-trip", n.Name)
			}
		default:
			// Synthetic <init> node.
			if n.Body() != nil {
				t.Errorf("%s: <init> node with a body", n.Name)
			}
		}

		// Edge mirroring: n.Out present in callee.In, n.In in caller.Out.
		for _, e := range n.Out {
			if e.Caller != n {
				t.Errorf("%s: out-edge whose Caller is %s", n.Name, e.Caller.Name)
			}
			if !containsEdge(e.Callee.In, e) {
				t.Errorf("%s -> %s: out-edge missing from callee's In", n.Name, e.Callee.Name)
			}
			if e.Kind == KindClosure && e.Callee.Parent != n {
				t.Errorf("%s -> %s: closure edge to a literal of %v", n.Name, e.Callee.Name, e.Callee.Parent)
			}
		}
		for _, e := range n.In {
			if e.Callee != n {
				t.Errorf("%s: in-edge whose Callee is %s", n.Name, e.Callee.Name)
			}
			if !containsEdge(e.Caller.Out, e) {
				t.Errorf("%s <- %s: in-edge missing from caller's Out", n.Name, e.Caller.Name)
			}
		}
	}

	// Every static call site's recorded targets are real nodes, and
	// every CallExpr in every body was seen by the builder.
	sites := 0
	for _, n := range g.Nodes {
		n.Walk(func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sites++
			targets, seen := g.CalleesOf(call)
			if !seen {
				t.Errorf("%s: call at %v never classified", n.Name, g.Fset.Position(call.Pos()))
				return true
			}
			for _, target := range targets {
				if names[target.Name] != target {
					t.Errorf("%s: call target %q is not a graph node", n.Name, target.Name)
				}
			}
			return true
		})
	}
	if sites != s.Calls {
		t.Errorf("walked %d call sites, builder classified %d", sites, s.Calls)
	}

	// Known anchors: functions and edges this repository is guaranteed
	// to contain. These pin cross-package static resolution, interface
	// resolution, and goroutine edges to real code.
	anchors := []string{
		"osnoise/internal/noise.Analyze",
		"osnoise/internal/noise.rawSource.scan",
		"osnoise/internal/noise.AnalyzeParallel",
		"osnoise/internal/trace.Decoder.Next",
		"osnoise/internal/trace.ReadParallel",
		"osnoise/internal/cluster.Run",
	}
	for _, name := range anchors {
		if g.NodeByName(name) == nil {
			t.Errorf("anchor %s missing from graph", name)
		}
	}

	// AnalyzeRaw reaches rawSource.scan (cross-function chain through the
	// source interface) and spawns goroutines somewhere in its reachable
	// set.
	ap := g.NodeByName("osnoise/internal/noise.AnalyzeRaw")
	pr := g.NodeByName("osnoise/internal/noise.rawSource.scan")
	if ap != nil && pr != nil {
		reach := g.Reachable(ap)
		if !reach[pr] {
			t.Errorf("rawSource.scan not reachable from AnalyzeRaw")
		}
		goEdges := 0
		for n := range reach {
			for _, e := range n.Out {
				if e.Kind == KindGo {
					goEdges++
				}
			}
		}
		if goEdges == 0 {
			t.Errorf("no goroutine-spawn edges reachable from AnalyzeParallel")
		}
	}

	// Interface resolution: somewhere in the module an error-interface
	// method call resolves to an in-repo Error implementation.
	ifaceEdges := 0
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Kind == KindInterface {
				ifaceEdges++
			}
		}
	}
	if ifaceEdges == 0 {
		t.Errorf("no interface-dispatch edges; the module calls error.Error on in-repo error types")
	}

	t.Logf("callgraph: %d nodes, stats %+v", len(g.Nodes), s)
}

func containsEdge(edges []*Edge, e *Edge) bool {
	for _, x := range edges {
		if x == e {
			return true
		}
	}
	return false
}
