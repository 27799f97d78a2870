// Package callgraph builds a repo-wide, over-approximating call graph
// over go/types, the interprocedural substrate of the noisevet suite.
// Per-package analyzers see one function at a time; the hot-path and
// cancellation-flow contracts are properties of whole call chains
// ("no allocation three calls below chunk.route", "the context is
// threaded from AnalyzeRaw down to every loop"), so they need to know,
// for every call site in the module, which in-repo bodies control can
// transfer to.
//
// Nodes are function bodies: every declared function and method, every
// function literal (each literal is its own node, linked to its
// enclosing function), and one synthetic <init> node per package
// holding the package-level variable initializer expressions. Edges
// over-approximate control transfer:
//
//   - Static: a call whose callee is a declared in-repo function,
//     including method calls on concrete receivers and immediately
//     invoked literals. Go/Defer mark the same resolution reached
//     through a `go` or `defer` statement.
//   - Interface: a call through an interface method, resolved to the
//     matching method of every in-repo named type (value or pointer
//     receiver) that implements the interface — all of them, because
//     the analysis cannot know which implementation flows to the site.
//   - Closure: the definition of a function literal inside its
//     enclosing function (the literal may run whenever the enclosing
//     function runs, so reachability must include it).
//   - Ref: a reference to a function or method outside call position —
//     a function value passed to sort.Slice, a method value stored in a
//     struct. Whoever receives the value may call it, so the
//     referencing function is treated as a potential caller.
//
// Every *ast.CallExpr in the module is classified exactly once (static,
// interface, dynamic function value, builtin, conversion, or external);
// Stats counts each class and TestSelfValidation asserts the count
// invariants plus edge soundness over the whole repository.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"osnoise/internal/analysis"
)

// Kind classifies one call-graph edge.
type Kind uint8

// Edge kinds, from strongest resolution to weakest: a Static edge is a
// direct transfer, Go/Defer are static transfers through goroutine
// spawn or defer, Interface is one possible dynamic dispatch target,
// Closure links a literal to its definition site, and Ref marks a
// function value escaping to an unknown caller.
const (
	// KindStatic is a direct call of a declared in-repo function.
	KindStatic Kind = iota
	// KindGo is a static call spawned in a goroutine (`go f(...)`).
	KindGo
	// KindDefer is a static call registered by a defer statement.
	KindDefer
	// KindInterface is dynamic dispatch through an interface method,
	// resolved to one in-repo implementation (one edge per candidate).
	KindInterface
	// KindClosure links a function literal to the function that
	// lexically defines it.
	KindClosure
	// KindRef is a reference to a function outside call position: the
	// value may be invoked by whoever receives it.
	KindRef
)

// String names the edge kind for diagnostics and graph dumps.
func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindGo:
		return "go"
	case KindDefer:
		return "defer"
	case KindInterface:
		return "interface"
	case KindClosure:
		return "closure"
	case KindRef:
		return "ref"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is one function body in the graph.
type Node struct {
	// Obj is the declared function or method object; nil for function
	// literals and synthetic <init> nodes.
	Obj *types.Func
	// Decl is the declaration carrying Body; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the function literal; nil for declared functions.
	Lit *ast.FuncLit
	// Parent is the node lexically enclosing a literal; nil otherwise.
	Parent *Node
	// Pkg is the package the body lives in.
	Pkg *analysis.Package
	// Name is the stable display name: "pkgpath.Func",
	// "pkgpath.Recv.Method" (pointer receivers spelled without the
	// star), "pkgpath.<init>" for the synthetic initializer node, and
	// "parent$N" for the N-th literal of its parent.
	Name string

	// Out and In are the edges leaving and entering this node.
	Out []*Edge
	In  []*Edge

	// roots are the AST subtrees owned by this node: the function body
	// for declared functions and literals (children that belong to
	// nested literals excluded during walks), or the package-level
	// initializer expressions for <init> nodes.
	roots []ast.Node
	lits  int // literals numbered so far, for stable $N names
}

// Pos returns the node's declaration position (NoPos for <init>).
func (n *Node) Pos() token.Pos {
	switch {
	case n.Decl != nil:
		return n.Decl.Pos()
	case n.Lit != nil:
		return n.Lit.Pos()
	}
	return token.NoPos
}

// Body returns the node's function body, or nil for <init> nodes.
func (n *Node) Body() *ast.BlockStmt {
	switch {
	case n.Decl != nil:
		return n.Decl.Body
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// CtxParam returns the object of the node's context.Context parameter,
// or nil when the function does not accept one. Interprocedural
// analyzers use it to follow a context through call chains.
func (n *Node) CtxParam() *types.Var {
	var sig *types.Signature
	switch {
	case n.Obj != nil:
		sig = n.Obj.Type().(*types.Signature)
	case n.Lit != nil && n.Pkg != nil:
		sig, _ = n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
	}
	if sig == nil {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isContextType(p.Type()) {
			return p
		}
	}
	return nil
}

// Walk visits every AST node owned by this function body in source
// order. Function literals are visited (their definition site belongs
// to this node) but not descended into: a literal's body belongs to the
// literal's own graph node. If f returns false the node's children are
// skipped.
func (n *Node) Walk(f func(ast.Node) bool) {
	for _, root := range n.roots {
		ast.Inspect(root, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok {
				f(m)
				return false
			}
			return f(m)
		})
	}
}

// Edge is one potential control transfer.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   Kind
	// Pos is the call, reference, or literal position.
	Pos token.Pos
}

// Stats counts every call expression in the module by how it resolved.
// Calls is the total; the remaining fields partition it.
type Stats struct {
	// Calls is every *ast.CallExpr visited in function bodies and
	// package-level initializers.
	Calls int
	// Static calls resolved to a declared in-repo function (including
	// go/defer and immediately invoked literals).
	Static int
	// Interface calls dispatched through an interface method (each may
	// contribute several edges).
	Interface int
	// Dynamic calls invoke a function-typed value (variable, field,
	// parameter, or another call's result); targets flow through Ref
	// edges instead.
	Dynamic int
	// Builtin calls invoke a language builtin (append, len, panic, …).
	Builtin int
	// Conversion counts type conversions, which parse as calls.
	Conversion int
	// External calls resolve to functions outside the loaded module
	// (standard library).
	External int
	// Unresolved counts call expressions the builder could not
	// classify; the self-validation test pins this to zero.
	Unresolved int
}

// Graph is the module-wide call graph.
type Graph struct {
	// Fset maps the graph's positions (node declarations, edge call
	// sites) to source locations.
	Fset  *token.FileSet
	Nodes []*Node
	Stats Stats

	byObj  map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	byName map[string]*Node
	sites  map[*ast.CallExpr][]*Node
	named  []*types.TypeName // in-repo named (non-interface) types, for interface resolution
	ifaces map[string][]*Node
}

// cacheKey is the Module.Cache slot the shared graph lives under.
const cacheKey = "callgraph"

// Of returns the module's call graph, building it on first use and
// memoizing it in the Module so every interprocedural analyzer in one
// checker run shares the same graph.
func Of(m *analysis.Module) *Graph {
	return m.Cache(cacheKey, func() interface{} { return Build(m.Fset, m.Pkgs) }).(*Graph)
}

// Build constructs the call graph of the loaded packages. Packages are
// visited in the given (dependency) order and files in go list order,
// so node numbering and edge order are deterministic.
func Build(fset *token.FileSet, pkgs []*analysis.Package) *Graph {
	g := &Graph{
		Fset:   fset,
		byObj:  make(map[*types.Func]*Node),
		byLit:  make(map[*ast.FuncLit]*Node),
		byName: make(map[string]*Node),
		sites:  make(map[*ast.CallExpr][]*Node),
		ifaces: make(map[string][]*Node),
	}

	// Pass 1: one node per declared function, one <init> node per
	// package with initializer expressions, and the named-type
	// inventory for interface resolution.
	for _, pkg := range pkgs {
		g.collectDecls(pkg)
	}
	// Pass 2: resolve every call and reference, creating literal nodes
	// on the way.
	for _, pkg := range pkgs {
		for _, node := range g.Nodes {
			if node.Pkg == pkg && node.Parent == nil {
				g.walkNode(node)
			}
		}
	}
	return g
}

// collectDecls creates the declared-function and <init> nodes of pkg
// and records its named types.
func (g *Graph) collectDecls(pkg *analysis.Package) {
	var initRoots []ast.Node
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue // assembly or external linkage: no body to analyze
				}
				obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
				n := &Node{
					Obj: obj, Decl: d, Pkg: pkg,
					Name:  FuncName(obj),
					roots: []ast.Node{d.Body},
				}
				if obj == nil {
					n.Name = pkg.PkgPath + "." + d.Name.Name
				}
				g.addNode(n)
				if obj != nil {
					g.byObj[obj] = n
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						initRoots = append(initRoots, v)
					}
				}
			}
		}
	}
	if len(initRoots) > 0 {
		g.addNode(&Node{
			Pkg:   pkg,
			Name:  pkg.PkgPath + ".<init>",
			roots: initRoots,
		})
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			// Uninstantiated generic types have no runtime method set;
			// their instantiations' calls resolve statically anyway.
			continue
		}
		g.named = append(g.named, tn)
	}
}

func (g *Graph) addNode(n *Node) {
	g.Nodes = append(g.Nodes, n)
	if _, taken := g.byName[n.Name]; taken {
		// Multiple func init() declarations (or blank funcs) share a
		// spelling; disambiguate so byName stays injective.
		for i := 2; ; i++ {
			alt := n.Name + "#" + strconv.Itoa(i)
			if _, taken := g.byName[alt]; !taken {
				n.Name = alt
				break
			}
		}
	}
	g.byName[n.Name] = n
}

// FuncName renders the stable display name of a declared function:
// "pkgpath.Func" or "pkgpath.Recv.Method" with pointer receivers
// spelled without the star.
func FuncName(obj *types.Func) string {
	if obj == nil {
		return "<nil>"
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := t.String()
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		// Strip instantiation brackets of generic receivers.
		if i := strings.IndexByte(name, '['); i >= 0 {
			name = name[:i]
		}
		return pkg + "." + name + "." + obj.Name()
	}
	return pkg + "." + obj.Name()
}

// walkNode resolves the calls and references in one node's body,
// creating child nodes for the literals it defines and recursing into
// them.
func (g *Graph) walkNode(n *Node) {
	info := n.Pkg.Info

	// calleeIdents are identifiers consumed as the callee of a call
	// expression; references through them are the call itself, not an
	// escaping function value.
	calleeIdents := make(map[*ast.Ident]bool)

	var children []*Node
	n.Walk(func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			g.resolveCall(n, m.Call, KindGo, calleeIdents)
			// Children of the call (arguments, nested calls) are visited
			// by the ordinary traversal; mark so the CallExpr itself is
			// not resolved twice.
			return true
		case *ast.DeferStmt:
			g.resolveCall(n, m.Call, KindDefer, calleeIdents)
			return true
		case *ast.CallExpr:
			g.resolveCall(n, m, KindStatic, calleeIdents)
			return true
		case *ast.FuncLit:
			child := g.byLit[m]
			if child == nil {
				// Plain closure definition; immediately invoked literals
				// were already created (with a Static/Go/Defer edge) when
				// their enclosing CallExpr resolved.
				child = &Node{
					Lit: m, Parent: n, Pkg: n.Pkg,
					Name:  n.Name + "$" + strconv.Itoa(n.lits+1),
					roots: []ast.Node{m.Body},
				}
				n.lits++
				g.addNode(child)
				g.byLit[m] = child
				g.addEdge(n, child, KindClosure, m.Pos())
			}
			children = append(children, child)
			return true
		case *ast.Ident:
			if calleeIdents[m] {
				return true
			}
			if obj, ok := info.Uses[m].(*types.Func); ok {
				if callee := g.byObj[obj]; callee != nil {
					g.addEdge(n, callee, KindRef, m.Pos())
				}
			}
			return true
		}
		return true
	})
	for _, child := range children {
		g.walkNode(child)
	}
}

// resolveCall classifies one call expression and adds its edges. base
// is KindStatic for ordinary calls, KindGo/KindDefer when the call is
// the operand of a go/defer statement. Resolved-through identifiers are
// recorded in calleeIdents so the reference scan does not double-count
// them as escaping function values.
func (g *Graph) resolveCall(n *Node, call *ast.CallExpr, base Kind, calleeIdents map[*ast.Ident]bool) {
	if _, done := g.sites[call]; done {
		return // go/defer pre-resolved it; the plain traversal revisits
	}
	info := n.Pkg.Info
	g.Stats.Calls++
	record := func(class *int, targets ...*Node) {
		*class++
		g.sites[call] = targets
	}

	// Conversions parse as calls: T(x), []byte(s), (func())(f).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		record(&g.Stats.Conversion)
		return
	}

	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		g.resolveIdentCall(n, call, f, base, calleeIdents)

	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			calleeIdents[f.Sel] = true
			switch sel.Kind() {
			case types.MethodVal:
				m := sel.Obj().(*types.Func)
				recv := sel.Recv()
				if _, isTP := recv.(*types.TypeParam); isTP {
					// A method call on a type parameter: the concrete
					// receiver is only known at instantiation, so the
					// target set is dynamic.
					record(&g.Stats.Dynamic)
					return
				}
				if isInterfaceType(recv) {
					targets := g.implementations(recv, m.Name())
					for _, t := range targets {
						g.addEdge(n, t, KindInterface, call.Pos())
					}
					record(&g.Stats.Interface, targets...)
					return
				}
				g.staticTo(n, call, m, base)
			case types.MethodExpr:
				if m, ok := sel.Obj().(*types.Func); ok {
					g.staticTo(n, call, m, base)
					return
				}
				record(&g.Stats.Unresolved)
			case types.FieldVal:
				// Calling a func-typed struct field: a dynamic call whose
				// targets flow through Ref edges at the stores.
				record(&g.Stats.Dynamic)
			}
			return
		}
		// No selection: a qualified identifier (pkg.F).
		g.resolveIdentCall(n, call, f.Sel, base, calleeIdents)

	case *ast.FuncLit:
		// Immediately invoked literal: resolve after its node exists.
		// The literal visit in walkNode runs later, so create the node
		// here if needed.
		child := g.byLit[f]
		if child == nil {
			child = &Node{
				Lit: f, Parent: n, Pkg: n.Pkg,
				Name:  n.Name + "$" + strconv.Itoa(n.lits+1),
				roots: []ast.Node{f.Body},
			}
			n.lits++
			g.addNode(child)
			g.byLit[f] = child
		}
		g.addEdge(n, child, base, call.Pos())
		record(&g.Stats.Static, child)

	case *ast.IndexExpr, *ast.IndexListExpr:
		// Explicit generic instantiation F[T](x): resolve the inner
		// expression.
		var x ast.Expr
		if ie, ok := f.(*ast.IndexExpr); ok {
			x = ie.X
		} else {
			x = f.(*ast.IndexListExpr).X
		}
		switch xf := ast.Unparen(x).(type) {
		case *ast.Ident:
			g.resolveIdentCall(n, call, xf, base, calleeIdents)
		case *ast.SelectorExpr:
			g.resolveIdentCall(n, call, xf.Sel, base, calleeIdents)
		default:
			record(&g.Stats.Dynamic)
		}

	default:
		// Call of a call's result, an index expression, a channel
		// receive of a func, …: a dynamic function value.
		record(&g.Stats.Dynamic)
	}
}

// resolveIdentCall classifies a call whose callee is denoted by one
// identifier (possibly the Sel of a qualified name).
func (g *Graph) resolveIdentCall(n *Node, call *ast.CallExpr, id *ast.Ident, base Kind, calleeIdents map[*ast.Ident]bool) {
	info := n.Pkg.Info
	calleeIdents[id] = true
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		g.Stats.Builtin++
		g.sites[call] = nil
	case *types.Func:
		g.staticTo(n, call, obj, base)
	case *types.Var:
		// A func-typed variable or parameter: dynamic.
		g.Stats.Dynamic++
		g.sites[call] = nil
	case *types.Nil:
		g.Stats.Dynamic++
		g.sites[call] = nil
	default:
		// Defs (shouldn't appear in call position) or missing info.
		g.Stats.Unresolved++
		g.sites[call] = nil
	}
}

// staticTo adds the static (or go/defer) edge for a resolved callee,
// counting it external when the callee lives outside the module.
func (g *Graph) staticTo(n *Node, call *ast.CallExpr, obj *types.Func, base Kind) {
	if callee := g.byObj[obj]; callee != nil {
		g.addEdge(n, callee, base, call.Pos())
		g.Stats.Static++
		g.sites[call] = []*Node{callee}
		return
	}
	g.Stats.External++
	g.sites[call] = nil
}

func (g *Graph) addEdge(from, to *Node, kind Kind, pos token.Pos) {
	e := &Edge{Caller: from, Callee: to, Kind: kind, Pos: pos}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
}

// implementations returns the method nodes of every in-repo named type
// that implements the interface, memoized per (interface, method).
func (g *Graph) implementations(iface types.Type, method string) []*Node {
	key := iface.String() + "." + method
	if targets, ok := g.ifaces[key]; ok {
		return targets
	}
	it, ok := iface.Underlying().(*types.Interface)
	if !ok || !it.IsMethodSet() {
		// Constraint interfaces (type terms) are not method sets and
		// cannot be dispatched through at runtime.
		g.ifaces[key] = nil
		return nil
	}
	var targets []*Node
	seen := make(map[*Node]bool)
	for _, tn := range g.named {
		T := tn.Type()
		var impl types.Type
		switch {
		case types.Implements(T, it):
			impl = T
		case types.Implements(types.NewPointer(T), it):
			impl = types.NewPointer(T)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, tn.Pkg(), method)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := g.byObj[m]; node != nil && !seen[node] {
			seen[node] = true
			targets = append(targets, node)
		}
	}
	g.ifaces[key] = targets
	return targets
}

// NodeByName returns the node with the given display name ("pkgpath.F",
// "pkgpath.T.Method", "pkgpath.F$1"), or nil.
func (g *Graph) NodeByName(name string) *Node { return g.byName[name] }

// NodeOf returns the node of a declared function object, or nil.
func (g *Graph) NodeOf(obj *types.Func) *Node { return g.byObj[obj] }

// NodeOfLit returns the node of a function literal, or nil.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// CalleesOf returns the in-repo targets a call expression resolved to
// (nil for external, builtin, conversion, and dynamic calls) and
// whether the call was seen at all.
func (g *Graph) CalleesOf(call *ast.CallExpr) ([]*Node, bool) {
	t, ok := g.sites[call]
	return t, ok
}

// Reachable returns the set of nodes reachable from the roots over
// every edge kind — the over-approximated "may execute when a root
// executes" set interprocedural analyzers quantify over.
func (g *Graph) Reachable(roots ...*Node) map[*Node]bool {
	seen := make(map[*Node]bool)
	var stack []*Node
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	return seen
}

// isInterfaceType reports whether t's underlying type is an interface.
func isInterfaceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
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
