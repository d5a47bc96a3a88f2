package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicpubCheck enforces the table layer's publication protocol on
// every atomic.Pointer in the module (ARCHITECTURE.md, "The
// publication memory model"):
//
//  1. Published values are immutable: no field or element write whose
//     receiver chain passes through a Load() call (directly or via a
//     local alias of a Load result).
//  2. Publication is guarded: a Store() must run either while a build
//     mutex is held in the same function, or into a still-private
//     value (a local built from a composite literal that no reader can
//     have seen yet).
//
// Deliberate single-writer paths carry //lint:allow(atomicpub) with a
// justification naming why no reader can race the write.
var atomicpubCheck = &Check{
	Name: "atomicpub",
	Doc:  "atomic.Pointer values are published under the owning build mutex (or into still-private state) and never written through after a Load",
	Run:  runAtomicpub,
}

func runAtomicpub(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, fb := range funcBodies(file) {
			runAtomicpubFunc(p, fb.body)
		}
	}
}

func runAtomicpubFunc(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// Locals bound to Load results: `p := x.Load()` makes every write
	// rooted at p a write-through-Load.
	loadVars := map[types.Object]bool{}
	// Locals born private: `t := &Table{...}` may be stored into
	// freely until it is published.
	freshVars := map[types.Object]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			if chainHasLoad(info, as.Rhs[i], loadVars) {
				loadVars[obj] = true
			}
			if isCompositeBirth(as.Rhs[i]) {
				freshVars[obj] = true
			}
		}
		return true
	})

	// Rule 1: writes through a Load.
	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				reportWriteThroughLoad(p, info, lhs, loadVars)
			}
		case *ast.IncDecStmt:
			reportWriteThroughLoad(p, info, s.X, loadVars)
		}
		return true
	})

	// Rule 2: Stores outside the build mutex. The flow walk supplies
	// the held state: any write-mutex Lock in this function guards the
	// Stores that follow it.
	flowWalk(body, flowHooks{
		info: info,
		effect: func(call *ast.CallExpr) flowEffect {
			_, method, ok := mutexCall(info, call)
			if !ok {
				return flowNone
			}
			switch method {
			case "Lock":
				return flowAcquire
			case "Unlock":
				return flowRelease
			}
			return flowNone
		},
		onCall: func(call *ast.CallExpr, held bool) {
			if held || !atomicPointerCall(info, call, "Store") {
				return
			}
			if root := chainRoot(call); root != nil && freshVars[info.ObjectOf(root)] {
				return
			}
			p.Reportf(call.Pos(), "atomic.Pointer Store outside the owning build mutex: publish under the build lock or into a still-private value (publication protocol, ARCHITECTURE.md)")
		},
	})
}

// reportWriteThroughLoad flags lhs when its receiver chain passes
// through an atomic.Pointer Load.
func reportWriteThroughLoad(p *Pass, info *types.Info, lhs ast.Expr, loadVars map[types.Object]bool) {
	// The written expression itself (an identifier being reassigned)
	// is fine; only writes *through* a loaded pointer mutate published
	// state, so the chain must be a selector/index path.
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return
	}
	if chainHasLoad(info, lhs, loadVars) {
		p.Reportf(lhs.Pos(), "write through an atomic.Pointer Load: published values are immutable — build a fresh value and Store it (publication protocol, ARCHITECTURE.md)")
	}
}

// chainHasLoad walks a selector/index/deref chain toward its root and
// reports whether it passes through an atomic.Pointer Load call or a
// local alias of one.
func chainHasLoad(info *types.Info, expr ast.Expr, loadVars map[types.Object]bool) bool {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.CallExpr:
			return atomicPointerCall(info, x, "Load")
		case *ast.Ident:
			return loadVars[info.ObjectOf(x)]
		default:
			return false
		}
	}
}

// chainRoot returns the root identifier of a method call's receiver
// chain (`ps` for ps.cols[i].enc.Store(v)), or nil when the chain
// roots in a call or other non-identifier.
func chainRoot(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	expr := sel.X
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// isCompositeBirth reports whether rhs constructs a brand-new value: a
// composite literal or its address. Such a value is private to the
// function until it is itself published.
func isCompositeBirth(rhs ast.Expr) bool {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		return ok && x.Op.String() == "&"
	}
	return false
}
