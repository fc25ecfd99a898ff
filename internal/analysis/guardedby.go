package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Rule guardedby: the static half of the mutex contract that
// `go test -race` checks dynamically. A struct field whose declaration
// carries the annotation
//
//	count int // guarded by mu
//
// (in its trailing comment or the doc comment above it) may only be
// read or written through the method receiver while the named mutex —
// a sibling field of the same struct — is held. The same syntax on a
// package-level var names a package-level mutex. The race job only
// catches lock omissions the tests happen to interleave; this rule
// catches them on every path, in every method, before the code runs.
//
// The walker tracks held mutexes through Lock/RLock, Unlock/RUnlock
// and `defer mu.Unlock()` (held to function end), and is branch-aware:
// an early-exit arm like engine.Do's
//
//	e.mu.Lock()
//	if e.closed { e.mu.Unlock(); return ... }
//	...mutations...
//	e.mu.Unlock()
//
// keeps the lock held on the fall-through path because the unlocking
// arm terminates. After a branch where no arm terminates, a mutex
// counts as held only if every arm left it held.
//
// Conventions recognized:
//   - Methods whose name ends in "Locked" (insertLocked, failLocked)
//     are callee-side helpers; the caller holds the lock, so their
//     bodies are exempt.
//   - Function literals are separate goroutine-able scopes and start
//     with no locks held, except deferred literals, which inherit the
//     locks held at the defer site (the `defer func() { ... }()`
//     unlock idiom).
//   - Free functions (constructors like New/Open building a value
//     before publication) have no receiver and are out of scope.
//
// An annotation naming a mutex that is not a field of the same struct
// is itself a finding — a typo there would otherwise silently disable
// the check.
//
// The pattern is anchored to the start of a comment line so that prose
// which merely mentions "guarded by" (like this very doc comment's
// examples) does not register an annotation.
var guardedByRe = regexp.MustCompile(`(?m)^guarded by (\w+)`)

// guardSpec is one annotated struct type: field name → guarding mutex
// field name.
type guardSpec map[string]string

func checkGuardedBy(p *Pass) []Diagnostic {
	var out []Diagnostic
	typeGuards := map[string]guardSpec{}   // struct type name → spec
	pkgGuards := map[types.Object]string{} // package-level var object → mutex var name
	for _, f := range p.Files {
		out = append(out, collectGuardAnnotations(p, f, typeGuards, pkgGuards)...)
	}
	if len(typeGuards) == 0 && len(pkgGuards) == 0 {
		return out
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			recv := receiverName(fn)
			typ := receiverTypeName(fn)
			var fields guardSpec
			if recv != "" {
				fields = typeGuards[typ]
			}
			if len(fields) == 0 && len(pkgGuards) == 0 {
				continue
			}
			w := &lockWalker{p: p, recv: recv, typ: typ, fields: fields, pkg: pkgGuards}
			w.walkStmts(fn.Body.List, map[string]bool{})
			out = append(out, w.out...)
		}
	}
	return out
}

// collectGuardAnnotations parses `// guarded by <mutex>` annotations
// from struct fields and package-level vars, validating that a struct
// annotation names a sibling field. Package-level guards are keyed by
// types.Object so that shadowing locals or same-named struct fields
// cannot alias them.
func collectGuardAnnotations(p *Pass, f *ast.File, typeGuards map[string]guardSpec, pkgGuards map[types.Object]string) []Diagnostic {
	var out []Diagnostic
	guardOf := func(field *ast.Field) string {
		for _, grp := range []*ast.CommentGroup{field.Doc, field.Comment} {
			if grp == nil {
				continue
			}
			if m := guardedByRe.FindStringSubmatch(grp.Text()); m != nil {
				return m[1]
			}
		}
		return ""
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				st, ok := sp.Type.(*ast.StructType)
				if !ok {
					continue
				}
				fieldNames := map[string]bool{}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						fieldNames[name.Name] = true
					}
				}
				for _, field := range st.Fields.List {
					mu := guardOf(field)
					if mu == "" {
						continue
					}
					if !fieldNames[mu] {
						out = append(out, p.diag("guardedby", field.Pos(),
							"field is annotated `guarded by %s` but %s.%s does not exist; the annotation would silently check nothing", mu, sp.Name.Name, mu))
						continue
					}
					for _, name := range field.Names {
						g := typeGuards[sp.Name.Name]
						if g == nil {
							g = guardSpec{}
							typeGuards[sp.Name.Name] = g
						}
						g[name.Name] = mu
					}
				}
			case *ast.ValueSpec:
				var mu string
				if sp.Comment != nil {
					if m := guardedByRe.FindStringSubmatch(sp.Comment.Text()); m != nil {
						mu = m[1]
					}
				}
				if mu == "" && sp.Doc != nil {
					if m := guardedByRe.FindStringSubmatch(sp.Doc.Text()); m != nil {
						mu = m[1]
					}
				}
				if mu == "" && gd.Doc != nil && len(gd.Specs) == 1 {
					if m := guardedByRe.FindStringSubmatch(gd.Doc.Text()); m != nil {
						mu = m[1]
					}
				}
				if mu == "" {
					continue
				}
				for _, name := range sp.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						pkgGuards[obj] = mu
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName extracts the bare receiver type name of a method.
func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// lockWalker tracks the set of held mutexes (by name) through one
// function body and flags guarded accesses made without the guard.
type lockWalker struct {
	p      *Pass
	recv   string                  // receiver identifier (e.g. "q")
	typ    string                  // receiver type name for messages (e.g. "Queue")
	fields guardSpec               // receiver field → mutex field
	pkg    map[types.Object]string // package var object → package mutex var
	out    []Diagnostic
}

// walkStmts walks a statement list, mutating held in place. Branch
// constructs copy held for each arm and merge afterwards.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt, held map[string]bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if w.lockToggle(st.X, held) {
			return
		}
		w.checkExpr(st.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held to function end.
		if mu, op := w.mutexCall(st.Call); mu != "" && (op == "Unlock" || op == "RUnlock") {
			return
		}
		// A deferred literal runs with whatever the function holds at
		// return; approximate with the locks held at the defer site.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, copyHeld(held))
			return
		}
		w.checkExpr(st.Call, held)
	case *ast.GoStmt:
		// A spawned goroutine holds nothing.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, map[string]bool{})
			for _, arg := range st.Call.Args {
				w.checkExpr(arg, held)
			}
			return
		}
		w.checkExpr(st.Call, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.checkExpr(e, held)
		}
		for _, e := range st.Lhs {
			w.checkExpr(e, held)
		}
	case *ast.IncDecStmt:
		w.checkExpr(st.X, held)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.checkExpr(e, held)
		}
	case *ast.IfStmt:
		w.walkIf(st, held)
	case *ast.BlockStmt:
		w.walkStmts(st.List, held)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, held)
		}
		if st.Cond != nil {
			w.checkExpr(st.Cond, held)
		}
		// Loop bodies may run zero times: lock-state changes inside do
		// not escape to the code after the loop.
		body := copyHeld(held)
		w.walkStmts(st.Body.List, body)
		if st.Post != nil {
			w.walkStmt(st.Post, body)
		}
	case *ast.RangeStmt:
		w.checkExpr(st.X, held)
		w.walkStmts(st.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, held)
		}
		if st.Tag != nil {
			w.checkExpr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.checkExpr(e, held)
				}
				w.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, held)
		}
		w.walkStmt(st.Assign, held)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				arm := copyHeld(held)
				if cc.Comm != nil {
					w.walkStmt(cc.Comm, arm)
				}
				w.walkStmts(cc.Body, arm)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, held)
	case *ast.SendStmt:
		w.checkExpr(st.Chan, held)
		w.checkExpr(st.Value, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, held)
					}
				}
			}
		}
	}
}

// walkIf handles the branch merge: arms get copies of the held set;
// if one arm terminates (return/panic/...), the fall-through state is
// the other arm's; otherwise a mutex stays held only if both arms kept
// it held.
func (w *lockWalker) walkIf(st *ast.IfStmt, held map[string]bool) {
	if st.Init != nil {
		w.walkStmt(st.Init, held)
	}
	w.checkExpr(st.Cond, held)
	thenHeld := copyHeld(held)
	w.walkStmts(st.Body.List, thenHeld)
	elseHeld := copyHeld(held)
	elseTerm := false
	switch e := st.Else.(type) {
	case *ast.BlockStmt:
		w.walkStmts(e.List, elseHeld)
		elseTerm = terminates(e.List)
	case *ast.IfStmt:
		w.walkIf(e, elseHeld)
	}
	thenTerm := terminates(st.Body.List)
	var merged map[string]bool
	switch {
	case thenTerm && !elseTerm:
		merged = elseHeld
	case elseTerm && !thenTerm:
		merged = thenHeld
	default:
		merged = intersectHeld(thenHeld, elseHeld)
	}
	for k := range held {
		delete(held, k)
	}
	for k := range merged {
		held[k] = true
	}
}

// terminates reports whether a statement list always leaves the
// function (or at least the enclosing loop): its last statement is a
// return, a branch, a panic/Fatal-style call, or a goto.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			name := calleeName(call)
			return name == "panic" || name == "Fatal" || name == "Fatalf" || name == "Exit"
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

// mutexCall decodes recv.mu.Lock() / pkgMu.Lock() style calls,
// returning the mutex name ("" when the call is not a tracked mutex
// operation) and the operation.
func (w *lockWalker) mutexCall(call *ast.CallExpr) (mu, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		// Package-level mutex: lock state tracked by its own name.
		return x.Name, sel.Sel.Name
	case *ast.SelectorExpr:
		// recv.mu.Lock(): track by field name, receiver-rooted only.
		if id, ok := x.X.(*ast.Ident); ok && id.Name == w.recv {
			return x.Sel.Name, sel.Sel.Name
		}
	}
	return "", ""
}

// lockToggle applies a Lock/Unlock statement to the held set,
// reporting whether the expression was consumed.
func (w *lockWalker) lockToggle(e ast.Expr, held map[string]bool) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	mu, op := w.mutexCall(call)
	if mu == "" {
		return false
	}
	switch op {
	case "Lock", "RLock":
		held[mu] = true
	case "Unlock", "RUnlock":
		delete(held, mu)
	}
	return true
}

// checkExpr flags guarded accesses in an expression while their mutex
// is not held. Nested function literals are separate scopes.
func (w *lockWalker) checkExpr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(x.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			// A nested recv.mu.Lock() inside a larger expression is not
			// an access to a guarded field; leave its lock effect to the
			// statement walker (only statement-position calls toggle).
			return true
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == w.recv && w.recv != "" {
				if mu, guarded := w.fields[x.Sel.Name]; guarded && !held[mu] {
					w.out = append(w.out, w.p.diag("guardedby", x.Pos(),
						"%s.%s is accessed without holding %s (annotated `guarded by %s`); lock it, or move the access into a *Locked helper", w.typ, x.Sel.Name, mu, mu))
				}
				return false
			}
		case *ast.Ident:
			if mu, guarded := w.pkg[w.p.Info.Uses[x]]; guarded && !held[mu] {
				w.out = append(w.out, w.p.diag("guardedby", x.Pos(),
					"%s is accessed without holding %s (annotated `guarded by %s`)", x.Name, mu, mu))
			}
		}
		return true
	})
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		if v {
			out[k] = v
		}
	}
	return out
}

func intersectHeld(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
