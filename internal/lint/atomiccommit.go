package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// AtomicCommit enforces the durable-storage commit discipline in
// internal/durable, internal/storage, and internal/labelstore:
//
//   - file creation and renames must flow through the fsync'd
//     tmp→rename commit helpers of internal/durable (AtomicWriter and
//     the framed Log). Direct os.Rename / os.WriteFile / os.Create /
//     os.OpenFile(O_CREATE) sites are flagged — the helpers
//     themselves carry //supg:atomiccommit-ok annotations stating why
//     they are the commit path.
//   - a raw file write must not reach a durable-log append without an
//     intervening fsync: the manifest records a file's size+CRC, so
//     appending before the data is durable can commit metadata for
//     bytes that a crash then loses. Appends are durable.Log's Append
//     and Rewrite (matched by type identity) and append* methods of
//     types named like a manifest or WAL.
var AtomicCommit = &Analyzer{
	Name:       "atomiccommit",
	Doc:        "require the fsync'd tmp→rename commit path for storage and WAL writes",
	Annotation: "atomiccommit",
	Packages: []string{
		"internal/durable",
		"internal/storage",
		"internal/labelstore",
	},
	Run: runAtomicCommit,
}

func runAtomicCommit(pass *Pass) {
	pass.InspectFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkRawFileOp(pass, call)
			}
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSyncBeforeAppend(pass, fd)
			}
			return true
		})
	})
}

const commitHint = "route the write through internal/durable (durable.AtomicWriter for files, durable.Log for logs); if this call IS the commit helper, annotate it with //supg:atomiccommit-ok <reason>"

// checkRawFileOp flags direct file-creating / renaming os calls.
func checkRawFileOp(pass *Pass, call *ast.CallExpr) {
	for _, name := range []string{"Rename", "WriteFile", "Create"} {
		if pass.CalleeIsPkgFunc(call, "os", name) {
			pass.Report(call.Pos(),
				fmt.Sprintf("direct os.%s bypasses the fsync'd tmp→rename commit path", name),
				commitHint)
			return
		}
	}
	if pass.CalleeIsPkgFunc(call, "os", "OpenFile") && len(call.Args) >= 2 && mentionsOCreate(pass, call.Args[1]) {
		pass.Report(call.Pos(),
			"direct os.OpenFile with O_CREATE bypasses the fsync'd tmp→rename commit path",
			commitHint)
	}
}

func mentionsOCreate(pass *Pass, flags ast.Expr) bool {
	found := false
	ast.Inspect(flags, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "O_CREATE" {
			if obj := pass.Package.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkSyncBeforeAppend walks one function body in source order and
// flags a manifest/WAL append that follows a raw file write with no
// fsync in between. Nested function literals are separate scopes and
// are skipped.
func checkSyncBeforeAppend(pass *Pass, fd *ast.FuncDecl) {
	pendingWrite := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if strings.Contains(strings.ToLower(id.Name), "sync") {
				pendingWrite = false
			}
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch {
		case isFileWrite(pass, sel):
			pendingWrite = true
		case name == "Sync" || name == "Flush" || strings.Contains(strings.ToLower(name), "sync"):
			pendingWrite = false
		case isSharedLogAppend(pass, sel) || strings.HasPrefix(name, "append") && isDurableLogRecv(pass, sel):
			if pendingWrite {
				pass.Report(call.Pos(),
					"raw file write can reach this manifest/WAL append without an fsync: a crash could commit metadata for lost bytes",
					"Sync the written file (or go through durable.AtomicWriter.Commit) before appending the record")
			}
		}
		return true
	})
}

// isFileWrite reports whether sel names a Write method on an *os.File
// or *bufio.Writer receiver.
func isFileWrite(pass *Pass, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteAt", "WriteByte":
	default:
		return false
	}
	t := pass.TypeOf(sel.X)
	return namedTypeIs(t, "os", "File") || namedTypeIs(t, "bufio", "Writer")
}

// isSharedLogAppend reports whether sel is an Append or Rewrite on
// the shared framed log, durable.Log, whatever the variable or field
// holding it is called.
func isSharedLogAppend(pass *Pass, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Append", "Rewrite":
		return namedTypeIs(pass.TypeOf(sel.X), pass.ModulePath+"/internal/durable", "Log")
	}
	return false
}

// isDurableLogRecv reports whether sel's receiver is a named type
// whose name marks it as the manifest or WAL.
func isDurableLogRecv(pass *Pass, sel *ast.SelectorExpr) bool {
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	n := strings.ToLower(named.Obj().Name())
	return strings.Contains(n, "manifest") || strings.Contains(n, "wal")
}

// namedTypeIs reports whether t is pkg.Name or *pkg.Name.
func namedTypeIs(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
