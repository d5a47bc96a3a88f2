package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// Checks returns the full analyzer suite in registration order.
func Checks() []*Check {
	return []*Check{
		detrandCheck,
		orderedemitCheck,
		wraperrCheck,
		floatcmpCheck,
		ctxfirstCheck,
		atomicpubCheck,
		lockpathCheck,
		gorolifeCheck,
		ctxloopCheck,
	}
}

// CheckByName returns the named check, or nil.
func CheckByName(name string) *Check {
	for _, c := range Checks() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// studyPackages are the packages whose outputs feed the paper's
// tables directly, plus the query layers whose answers are cached by
// corpus content hash (search, rank, query): a /search body must be
// byte-identical to be cacheable. The determinism contract —
// byte-identical results for any worker count — binds these; cmd/ and
// the acquisition/report layers may read the wall clock for
// operator-facing timing.
var studyPackages = map[string]bool{
	"ogdp/internal/core":     true,
	"ogdp/internal/join":     true,
	"ogdp/internal/fd":       true,
	"ogdp/internal/keys":     true,
	"ogdp/internal/union":    true,
	"ogdp/internal/gen":      true,
	"ogdp/internal/profile":  true,
	"ogdp/internal/stats":    true,
	"ogdp/internal/classify": true,
	"ogdp/internal/search":   true,
	"ogdp/internal/rank":     true,
	"ogdp/internal/query":    true,
	// obs records into the deterministic snapshot; all wall time it
	// handles must flow in through injected clocks, never time.Now.
	"ogdp/internal/obs": true,
}

// calleeFunc resolves a call expression to the package-level function
// or method it invokes, or nil for builtins, conversions, and
// function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function
// pkgPath.name (not a method).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// inspectAll walks every file of the pass's package.
func inspectAll(p *Pass, fn func(n ast.Node) bool) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, fn)
	}
}

// shortPath trims the module prefix off an import path for messages.
func shortPath(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
