package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// unreachedAnalyzer reports every function and method that no binary
// reaches. The roots are the main function of every main package, the
// init functions and package-level variable initialisers of every package
// those binaries (or the facade) link in, and the facade's exported API:
// its exported functions and the exported methods of the types it
// declares or aliases. From the roots the walk follows every reference to
// a function or method, call or value, so a function filed in a registry
// map or handed to sort.Slice counts as reached.
//
// Dynamic dispatch is resolved by name. A method is reached when reached
// code uses a value of its receiver type and some interface declared in
// the program, or in a package it imports, has a method of that name: the
// type may flow into that interface, and the call (fmt's String, sort's
// Less) may happen outside the module.
//
// The analyzer judges against the binaries actually loaded, so it only
// speaks when at least one main package is; over the whole module
// (./...) that is every command and example. Test files are not loaded:
// code that only tests call is unreached. A symbol another package's
// tests or the perfbench module need is kept with //lint:allow unreached
// naming that consumer.
func unreachedAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "unreached",
		Doc:  "report functions and methods that no binary, init function or the facade's API reaches",
	}
	// Reachability spans packages, so it is computed once per run from
	// the full load and reused by every per-package pass.
	var (
		done    bool
		reached map[*types.Func]bool // nil when no main package is loaded
	)
	a.Run = func(p *Pass) {
		if !done {
			done, reached = true, reachable(p.All)
		}
		if reached == nil {
			p.Skip()
			return
		}
		for _, f := range p.Pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || isEntry(p.Pkg, fd) {
					continue
				}
				fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || fn.Name() == "_" || reached[fn] {
					continue
				}
				kind, name := "function", p.Pkg.Types.Name()+"."+fn.Name()
				if tn := receiverTypeName(p.Pkg.Info, fd); tn != nil {
					kind, name = "method", "("+p.Pkg.Types.Name()+"."+tn.Name()+")."+fn.Name()
				}
				p.Report(fd.Name, "%s %s is reached by no binary: delete it, or move it into the tests that use it", kind, name)
			}
		}
	}
	return a
}

// isEntry reports whether the declaration is one the runtime calls: an
// init function, or main in a main package.
func isEntry(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	return fd.Name.Name == "init" || (fd.Name.Name == "main" && pkg.Types.Name() == "main")
}

// reachable computes the set of functions and methods reached from the
// roots described on unreachedAnalyzer, or nil when no main package is
// loaded.
func reachable(pkgs []*Package) map[*types.Func]bool {
	byPath := map[string]*Package{}
	var linked []*Package
	hasMain := false
	for _, pkg := range pkgs {
		byPath[pkg.PkgPath] = pkg
		isMain := pkg.Types.Name() == "main"
		hasMain = hasMain || isMain
		if isMain || pkg.PkgPath == Module {
			linked = append(linked, pkg)
		}
	}
	if !hasMain {
		return nil
	}
	isLinked := map[*Package]bool{}
	for i := 0; i < len(linked); i++ {
		pkg := linked[i]
		if isLinked[pkg] {
			continue
		}
		isLinked[pkg] = true
		for _, imp := range pkg.Types.Imports() {
			if dep := byPath[imp.Path()]; dep != nil {
				linked = append(linked, dep)
			}
		}
	}

	w := &reachWalk{
		decls:   funcDecls(pkgs),
		names:   interfaceMethodNames(pkgs),
		reached: map[*types.Func]bool{},
		live:    map[*types.TypeName]bool{},
	}
	for _, pkg := range pkgs {
		if !isLinked[pkg] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body != nil && isEntry(pkg, d) {
						w.queue = append(w.queue, reachItem{pkg, d.Body})
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						w.queue = append(w.queue, reachItem{pkg, d})
					}
				}
			}
		}
		if pkg.PkgPath == Module {
			w.facade(pkg)
		}
	}
	for len(w.queue) > 0 {
		it := w.queue[0]
		w.queue = w.queue[1:]
		w.inspect(it)
	}
	return w.reached
}

// interfaceMethodNames collects the method names of every interface type
// the loaded packages mention, every interface their imports declare at
// package scope, and error's Error.
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}
	return names
}

// reachItem is a piece of syntax whose references are reached: a
// function body or a package-level var declaration.
type reachItem struct {
	pkg  *Package
	node ast.Node
}

// reachWalk is the worklist state of one reachability computation.
type reachWalk struct {
	decls   map[*types.Func]declSite
	names   map[string]bool // method names some interface declares
	reached map[*types.Func]bool
	live    map[*types.TypeName]bool // types reached code holds values of
	queue   []reachItem
}

// facade roots the module's public API: its exported functions and the
// exported methods of every type it declares or aliases.
func (w *reachWalk) facade(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			w.reach(obj)
		case *types.TypeName:
			named, ok := types.Unalias(obj.Type()).(*types.Named)
			if !ok {
				continue
			}
			w.liveType(named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					w.reach(m)
				}
			}
		}
	}
}

// reach marks a function reached and queues its body.
func (w *reachWalk) reach(fn *types.Func) {
	fn = fn.Origin()
	if w.reached[fn] {
		return
	}
	w.reached[fn] = true
	if site, ok := w.decls[fn]; ok {
		w.queue = append(w.queue, reachItem{site.Pkg, site.Decl.Body})
	}
}

// liveType records that reached code holds values of the type, or of a
// pointer, slice, array, map or channel of it. That reaches the type's
// methods an interface could call, and makes the types it embeds live.
func (w *reachWalk) liveType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Pointer:
		w.liveType(t.Elem())
	case *types.Slice:
		w.liveType(t.Elem())
	case *types.Array:
		w.liveType(t.Elem())
	case *types.Chan:
		w.liveType(t.Elem())
	case *types.Map:
		w.liveType(t.Key())
		w.liveType(t.Elem())
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return
	}
	named = named.Origin()
	if w.live[named.Obj()] {
		return
	}
	w.live[named.Obj()] = true
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); w.names[m.Name()] {
			w.reach(m)
		}
	}
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Embedded() {
				w.liveType(f.Type())
			}
		}
	}
}

// inspect reaches every function referenced in the item's syntax and
// records the types of the values it handles.
func (w *reachWalk) inspect(it reachItem) {
	info := it.pkg.Info
	ast.Inspect(it.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				w.reach(fn)
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if t := info.TypeOf(e); t != nil {
				w.liveType(t)
			}
		}
		return true
	})
}
