// Package hotpath defines a module-level noisevet analyzer enforcing
// the zero-allocation discipline of the per-event analysis paths.
//
// The paper's measurement methodology only works because the observer
// does not perturb the system under test; in this repository that
// translates to a hard rule on the code that runs once per trace event
// (ROADMAP item 3 targets 100 M events/sec — at that rate a single
// heap allocation per event is the difference between streaming and
// thrashing). The rule cannot be checked one function at a time: an
// innocent fmt.Errorf three calls below chunk.route is exactly as
// expensive as one in the loop itself.
//
// Functions opt in as roots with a //noisevet:hotpath directive on
// their doc comment. The analyzer computes everything reachable from
// the roots over the module call graph — through static calls,
// goroutine spawns, defers, closures, interface dispatch, and escaping
// function references — and flags, inside that set:
//
//   - calls into fmt or reflect (interface boxing of every argument);
//   - range over a map (hash-order iteration, per-iteration overhead);
//   - composite literals escaping into interface-typed slots
//     (assignment or call argument: a guaranteed heap allocation);
//   - append inside a loop growing a local slice that was never
//     preallocated with make(…, …, cap);
//   - function literals defined inside a loop body (a closure
//     allocation per iteration), except the operand of a go statement —
//     spawning workers in a loop is the parallel layer's job.
//
// Error paths are exempted explicitly, not silently: annotating an
// error constructor //noisevet:coldpath stops propagation there. The
// cold path may allocate; the directive records that someone decided
// so.
//
// The analyzer also validates the directive namespace itself: unknown
// //noisevet: names, hotpath/coldpath comments that do not precede a
// function declaration, and hotpath on a bodiless declaration are
// findings, so a typo like //noisevet:hotpah cannot silently disable
// enforcement.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"osnoise/internal/analysis"
	"osnoise/internal/analysis/callgraph"
	"osnoise/internal/analysis/directive"
)

// Config tunes the hotpath analyzer.
type Config struct {
	// StaleColdpath reports //noisevet:coldpath directives whose barrier
	// was never reached from any //noisevet:hotpath root: the exemption
	// no longer exempts anything, so it should be removed before a
	// refactor quietly routes a new hot path through it.
	StaleColdpath bool
}

// New returns the hotpath analyzer.
func New(cfg Config) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotpath",
		Doc: "hotpath: no allocation or reflection reachable from //noisevet:hotpath roots\n\n" +
			"Computes the call-graph closure of every //noisevet:hotpath-annotated\n" +
			"function and reports fmt/reflect calls, map iteration, interface-escaping\n" +
			"composite literals, un-preallocated append in loops, and per-iteration\n" +
			"closure allocations inside it. //noisevet:coldpath stops propagation;\n" +
			"malformed directives are themselves findings.",
	}
	a.RunModule = func(pass *analysis.ModulePass) error { return run(pass, cfg) }
	return a
}

// coldBarrier is one //noisevet:coldpath annotation: the barrier node
// and the directive comment's position, for stale reporting.
type coldBarrier struct {
	node *callgraph.Node
	pos  token.Pos
}

func run(pass *analysis.ModulePass, cfg Config) error {
	g := callgraph.Of(pass.Module)

	roots, barriers := collectDirectives(pass, g)
	cold := make(map[*callgraph.Node]bool, len(barriers))
	for _, b := range barriers {
		cold[b.node] = true
	}

	// Reachability from the hot roots, stopping at coldpath barriers:
	// a coldpath function may allocate, and nothing below it counts.
	// A barrier an edge actually lands on is doing its job; one no
	// traversal touches is stale.
	hot := make(map[*callgraph.Node]bool)
	hit := make(map[*callgraph.Node]bool)
	var stack []*callgraph.Node
	for _, r := range roots {
		if cold[r] {
			// hotpath and coldpath on the same function: the coldpath
			// wins (the root is inert) and is clearly not stale.
			hit[r] = true
			continue
		}
		if !hot[r] {
			hot[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			m := e.Callee
			if cold[m] {
				hit[m] = true
				continue
			}
			if !hot[m] {
				hot[m] = true
				stack = append(stack, m)
			}
		}
	}

	// Deterministic order: g.Nodes is built in package/file/source
	// order; findings are sorted again by the checker anyway.
	for _, n := range g.Nodes {
		if hot[n] && n.Pkg != nil && n.Pkg.Target {
			checkNode(pass, n)
		}
	}

	if cfg.StaleColdpath {
		for _, b := range barriers {
			if !hit[b.node] {
				pass.Reportf(b.pos, "stale //noisevet:coldpath: %s is not reached from any //noisevet:hotpath root; remove the directive", b.node.Name)
			}
		}
	}
	return nil
}

// collectDirectives scans every target file for //noisevet: comments,
// reports malformed ones, and returns the hotpath roots and coldpath
// barriers as graph nodes. ignore belongs to the checker's suppression
// layer and lockrank to the lockorder analyzer; both are validated here
// (one grammar, one reporter) but otherwise skipped.
func collectDirectives(pass *analysis.ModulePass, g *callgraph.Graph) (roots []*callgraph.Node, barriers []coldBarrier) {
	for _, pkg := range pass.Module.Pkgs {
		if !pkg.Target {
			continue
		}
		for _, file := range pkg.Files {
			// Comments that are the doc group of a function declaration:
			// the only place hotpath/coldpath may appear.
			funcDoc := make(map[*ast.Comment]*ast.FuncDecl)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					funcDoc[c] = fd
				}
			}
			for _, group := range file.Comments {
				for _, c := range group.List {
					d, err := directive.Parse(c.Text)
					if err != nil {
						pass.Reportf(c.Slash, "%v", err)
						continue
					}
					if d == nil || d.Name == directive.Ignore || d.Name == directive.Lockrank {
						continue
					}
					fd := funcDoc[c]
					if fd == nil {
						pass.Reportf(c.Slash, "//noisevet:%s must be part of a function declaration's doc comment", d.Name)
						continue
					}
					if fd.Body == nil {
						if d.Name == directive.Hotpath {
							pass.Reportf(c.Slash, "//noisevet:hotpath on a function without a body; the analyzer cannot trace an opaque root")
						}
						continue
					}
					node := nodeOfDecl(g, pkg, fd)
					if node == nil {
						continue
					}
					if d.Name == directive.Hotpath {
						roots = append(roots, node)
					} else {
						barriers = append(barriers, coldBarrier{node: node, pos: c.Slash})
					}
				}
			}
		}
	}
	return roots, barriers
}

// nodeOfDecl resolves a function declaration to its graph node.
func nodeOfDecl(g *callgraph.Graph, pkg *analysis.Package, fd *ast.FuncDecl) *callgraph.Node {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	return g.NodeOf(obj)
}

// checkNode reports every hot-path violation inside one function body.
func checkNode(pass *analysis.ModulePass, n *callgraph.Node) {
	info := n.Pkg.Info

	// Loop extents, for "inside a loop" containment, and the set of
	// slice variables preallocated anywhere in this function.
	type span struct{ lo, hi int }
	var loops []span
	prealloc := make(map[types.Object]bool)
	goLits := make(map[*ast.FuncLit]bool)
	n.Walk(func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt:
			if m.Body != nil {
				loops = append(loops, span{int(m.Body.Pos()), int(m.Body.End())})
			}
		case *ast.RangeStmt:
			if m.Body != nil {
				loops = append(loops, span{int(m.Body.Pos()), int(m.Body.End())})
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		case *ast.AssignStmt:
			// x := make([]T, len, cap) or x = make(...): x counts as
			// preallocated for the whole function.
			for i, rhs := range m.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) < 3 {
					continue
				}
				fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || fn.Name != "make" {
					continue
				}
				if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
					continue
				}
				if i < len(m.Lhs) {
					if id, ok := m.Lhs[i].(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							prealloc[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	inLoop := func(m ast.Node) bool {
		p := int(m.Pos())
		for _, s := range loops {
			if s.lo <= p && p < s.hi {
				return true
			}
		}
		return false
	}

	n.Walk(func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if pkgName := calleePackage(info, m); pkgName == "fmt" || pkgName == "reflect" {
				pass.Reportf(m.Pos(), "hot path: call into %s allocates per call (reachable from a //noisevet:hotpath root); outline the slow case into a //noisevet:coldpath helper", pkgName)
			}
			checkInterfaceArgs(pass, info, m)
			checkAppend(pass, n, m, inLoop, prealloc)

		case *ast.RangeStmt:
			if t := info.TypeOf(m.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(m.Pos(), "hot path: range over map iterates in hash order with per-iteration overhead; iterate a sorted or indexed slice instead")
				}
			}

		case *ast.AssignStmt:
			checkInterfaceAssign(pass, info, m)

		case *ast.FuncLit:
			if inLoop(m) && !goLits[m] {
				pass.Reportf(m.Pos(), "hot path: closure allocated on every loop iteration; hoist the function literal out of the loop")
			}
		}
		return true
	})
}

// calleePackage returns the package name a call statically dispatches
// into ("fmt" for fmt.Errorf), or "" when the callee is not a
// package-qualified identifier.
func calleePackage(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// checkInterfaceArgs flags composite literals passed where the callee
// expects an interface: the literal escapes to the heap at the call.
func checkInterfaceArgs(pass *analysis.ModulePass, info *types.Info, call *ast.CallExpr) {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		lit := compositeLit(arg)
		if lit == nil {
			continue
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() > 0 {
				if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) {
			pass.Reportf(arg.Pos(), "hot path: composite literal escapes into interface argument (heap allocation per call)")
		}
	}
}

// checkInterfaceAssign flags composite literals assigned into
// interface-typed locations.
func checkInterfaceAssign(pass *analysis.ModulePass, info *types.Info, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lit := compositeLit(rhs)
		if lit == nil {
			continue
		}
		if lt := info.TypeOf(as.Lhs[i]); lt != nil && types.IsInterface(lt) {
			pass.Reportf(rhs.Pos(), "hot path: composite literal escapes into interface assignment (heap allocation)")
		}
	}
}

// compositeLit unwraps a (possibly &-prefixed, parenthesized)
// composite literal, or returns nil.
func compositeLit(e ast.Expr) *ast.CompositeLit {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}

// checkAppend flags x = append(x, …) inside a loop when x is a plain
// local slice variable with no make(…, …, cap) preallocation anywhere
// in the function — the per-event growth pattern that reallocates
// log(n) times.
func checkAppend(pass *analysis.ModulePass, n *callgraph.Node, call *ast.CallExpr, inLoop func(ast.Node) bool, prealloc map[types.Object]bool) {
	info := n.Pkg.Info
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return
	}
	if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
		return
	}
	if len(call.Args) == 0 || !inLoop(call) {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := info.ObjectOf(id).(*types.Var)
	if !ok || obj.IsField() || prealloc[obj] {
		return
	}
	// Only flag variables declared inside this body: parameters,
	// captured outer variables, and globals may well be preallocated
	// by whoever owns them.
	body := n.Body()
	if body == nil || obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
		return
	}
	pass.Reportf(call.Pos(), "hot path: append grows %s inside a loop without preallocation; make(…, 0, cap) it before the loop", id.Name)
}
