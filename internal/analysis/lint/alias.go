package lint

import (
	"go/ast"
	"go/types"
)

// DocAliasing guards the read contract: the datastore, the query engine
// and the cluster router hand out read results as shared, read-only
// snapshots — the stored documents themselves, or result-cache entries
// other callers also hold — with no defensive copy. A document obtained
// from a read must not be written through — index assignment, delete,
// or a mutating document method — unless the variable was first rebound
// through Copy()/NormalizeDoc.
//
// The tracking is flow-ordered and per-function: read results taint
// their variables, range/index/GetDoc propagate taint, and any
// rebinding (including the sanctioned `d = d.Copy()`) clears it.
var DocAliasing = &Analyzer{
	Name: "docaliasing",
	Doc:  "documents returned by datastore/queryengine/cluster reads must be Copy()d before mutation",
	Run:  runDocAliasing,
}

// readMethodNames are the datastore/queryengine/cluster entry points
// that hand documents out (Get is the router's by-id read).
var readMethodNames = map[string]bool{
	"Find": true, "FindAll": true, "FindOne": true, "FindID": true,
	"FindAndModify": true, "All": true, "Next": true, "Aggregate": true,
	"Get": true,
}

// mutatingDocMethods write through the receiver in place.
var mutatingDocMethods = map[string]bool{
	"Set": true, "Unset": true, "Merge": true,
}

func runDocAliasing(p *Pass) {
	rel := p.Cfg.Rel(p.Pkg.Path)
	if !inScope(rel, p.Cfg.AliasScope) {
		return
	}
	docPkg := p.Cfg.ModulePath + "/internal/document"
	readPkgs := map[string]bool{
		p.Cfg.ModulePath + "/internal/datastore":   true,
		p.Cfg.ModulePath + "/internal/queryengine": true,
		p.Cfg.ModulePath + "/internal/cluster":     true,
	}
	funcBodies(p.Pkg, func(decl *ast.FuncDecl, _ *ast.File) {
		s := &aliasState{p: p, docPkg: docPkg, readPkgs: readPkgs, tainted: map[types.Object]bool{}}
		s.walkStmts(decl.Body.List)
	})
}

type aliasState struct {
	p        *Pass
	docPkg   string
	readPkgs map[string]bool
	tainted  map[types.Object]bool
}

func (s *aliasState) walkStmts(list []ast.Stmt) {
	for _, st := range list {
		s.walkStmt(st)
	}
}

func (s *aliasState) walkStmt(st ast.Stmt) {
	switch x := st.(type) {
	case *ast.AssignStmt:
		s.checkMutationLHS(x)
		for _, r := range x.Rhs {
			s.checkExpr(r)
		}
		s.updateTaint(x)
	case *ast.ExprStmt:
		s.checkExpr(x.X)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					s.checkExpr(v)
				}
				s.taintFromSpec(vs)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			s.checkExpr(r)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			s.walkStmt(x.Init)
		}
		s.checkExpr(x.Cond)
		s.walkStmts(x.Body.List)
		if x.Else != nil {
			s.walkStmt(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			s.walkStmt(x.Init)
		}
		if x.Cond != nil {
			s.checkExpr(x.Cond)
		}
		s.walkStmts(x.Body.List)
		if x.Post != nil {
			s.walkStmt(x.Post)
		}
	case *ast.RangeStmt:
		s.checkExpr(x.X)
		s.taintRangeVars(x)
		s.walkStmts(x.Body.List)
	case *ast.BlockStmt:
		s.walkStmts(x.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			s.walkStmt(x.Init)
		}
		if x.Tag != nil {
			s.checkExpr(x.Tag)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s.walkStmt(x.Init)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.walkStmts(cc.Body)
			}
		}
	case *ast.DeferStmt:
		s.checkExpr(x.Call)
	case *ast.GoStmt:
		s.checkExpr(x.Call)
	case *ast.SendStmt:
		s.checkExpr(x.Value)
	case *ast.LabeledStmt:
		s.walkStmt(x.Stmt)
	}
}

// checkMutationLHS reports writes through an index expression whose
// base is a tainted document (d["k"] = v, docs[0]["k"] = v).
func (s *aliasState) checkMutationLHS(a *ast.AssignStmt) {
	for _, lhs := range a.Lhs {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		if obj := s.taintedRoot(idx.X); obj != nil {
			s.p.Reportf(lhs.Pos(),
				"%s aliases a document returned by a datastore/queryengine/cluster read; Copy() it before assigning into it", obj.Name())
		}
	}
}

// checkExpr reports mutating calls (delete, Set/Unset/Merge) applied to
// tainted documents anywhere inside e, including closures.
func (s *aliasState) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
			if _, isBuiltin := objOf(s.p.Pkg.Info, id).(*types.Builtin); isBuiltin {
				if obj := s.taintedRoot(call.Args[0]); obj != nil {
					s.p.Reportf(call.Pos(),
						"delete on %s, which aliases a document returned by a read; Copy() it first", obj.Name())
				}
			}
			return true
		}
		f := callee(s.p.Pkg.Info, call)
		if f == nil || f.Pkg() == nil || f.Pkg().Path() != s.docPkg || !mutatingDocMethods[f.Name()] {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj := s.taintedRoot(sel.X); obj != nil {
			s.p.Reportf(call.Pos(),
				"%s.%s mutates a document returned by a read in place; Copy() it first", obj.Name(), f.Name())
		}
		return true
	})
}

// taintedRoot unwraps parens/indexing/type assertions and reports the
// tainted object at the base, if any.
func (s *aliasState) taintedRoot(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			if obj := objOf(s.p.Pkg.Info, x); obj != nil && s.tainted[obj] {
				return obj
			}
			return nil
		case *ast.CallExpr:
			// A GetDoc chain keeps pointing into the same document.
			if f := callee(s.p.Pkg.Info, x); f != nil && f.Pkg() != nil &&
				f.Pkg().Path() == s.docPkg && f.Name() == "GetDoc" {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					e = sel.X
					continue
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// updateTaint applies the assignment's effect on the taint set.
func (s *aliasState) updateTaint(a *ast.AssignStmt) {
	if len(a.Rhs) == 1 && len(a.Lhs) >= 1 {
		s.bind(a.Lhs, a.Rhs[0])
		return
	}
	for i := range a.Lhs {
		if i < len(a.Rhs) {
			s.bind(a.Lhs[i:i+1], a.Rhs[i])
		}
	}
}

func (s *aliasState) taintFromSpec(vs *ast.ValueSpec) {
	if len(vs.Values) != 1 {
		return
	}
	var lhs []ast.Expr
	for _, n := range vs.Names {
		lhs = append(lhs, n)
	}
	s.bind(lhs, vs.Values[0])
}

// bind assigns rhs to the lhs identifiers, updating taint: sanitizing
// rebinds clear it, read calls and aliases of tainted values set it,
// anything else clears it.
func (s *aliasState) bind(lhs []ast.Expr, rhs ast.Expr) {
	taints := false
	if !s.sanitizes(rhs) {
		taints = s.isReadCall(rhs) || s.taintedRoot(rhs) != nil
	}
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := objOf(s.p.Pkg.Info, id)
		if obj == nil {
			continue
		}
		if taints && isDocType(obj.Type(), s.docPkg) {
			s.tainted[obj] = true
		} else {
			delete(s.tainted, obj)
		}
	}
}

// sanitizes reports whether the expression makes a fresh copy:
// a Copy() call or document.NormalizeDoc anywhere in the chain.
func (s *aliasState) sanitizes(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := callee(s.p.Pkg.Info, c); f != nil && f.Pkg() != nil && f.Pkg().Path() == s.docPkg {
			if f.Name() == "Copy" || f.Name() == "NormalizeDoc" || f.Name() == "FromJSON" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isReadCall reports whether e is a call to a datastore/queryengine/
// cluster read returning documents.
func (s *aliasState) isReadCall(e ast.Expr) bool {
	c, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	f := callee(s.p.Pkg.Info, c)
	if f == nil || f.Pkg() == nil || !s.readPkgs[f.Pkg().Path()] || !readMethodNames[f.Name()] {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isDocType(sig.Results().At(0).Type(), s.docPkg)
}

// isDocType reports whether t is document.D, []document.D, or a
// pointer/slice chain ending in it.
func isDocType(t types.Type, docPkg string) bool {
	switch x := t.(type) {
	case *types.Slice:
		return isDocType(x.Elem(), docPkg)
	case *types.Pointer:
		return isDocType(x.Elem(), docPkg)
	}
	return isNamed(t, docPkg, "D")
}

// taintRangeVars taints the value variable of `for _, d := range docs`
// when docs is tainted.
func (s *aliasState) taintRangeVars(r *ast.RangeStmt) {
	if s.taintedRoot(r.X) == nil {
		return
	}
	if r.Value == nil {
		return
	}
	id, ok := r.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := objOf(s.p.Pkg.Info, id)
	if obj != nil && isDocType(obj.Type(), s.docPkg) {
		s.tainted[obj] = true
	}
}
