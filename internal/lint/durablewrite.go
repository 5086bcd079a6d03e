package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Durablewrite flags writes to durable state that bypass the write-ahead
// log. A struct field whose declaration carries a trailing //xvet:durable
// marker is a promise: its value must survive a crash, so every assignment
// to it (or through it, for marked maps) has to be paired with a persist.
// The check is function-granular — the innermost function containing the
// write must also call a persisting function (a name starting with
// "persist", or a WAL Append) — because the pairing discipline in this
// tree is exactly that shape: mutate under the lock, release, persist
// before the message that reveals the state goes out (internal/wal,
// DESIGN.md §9). In-memory baselines (the paper's assumed crash-free
// shared objects) escape with a reasoned //xvet:ok.
// Markers are package-scoped: the fields are unexported, so marker and
// write always share a package.
var Durablewrite = &Analyzer{
	Name: "durablewrite",
	Doc:  "no write to an //xvet:durable field in a function that never persists (persist*/Append)",
	Run:  runDurablewrite,
}

func runDurablewrite(pass *Pass) error {
	marked := markedDurableFields(pass)
	if len(marked) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		var stack []ast.Node
		persists := make(map[ast.Node]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				name, hit := durableTarget(pass, marked, lhs)
				if !hit {
					continue
				}
				fn := enclosingFunc(stack)
				if fn == nil {
					break
				}
				if done, ok := persists[fn]; !ok {
					done = containsPersistCall(fn)
					persists[fn] = done
					if done {
						break
					}
				} else if done {
					break
				}
				pass.Reportf(lhs.Pos(), "write to durable field %q in a function that never persists; append to the WAL (persist*) before the state escapes, or annotate the in-memory baseline", name)
				break // one report per statement; the directive is line-keyed
			}
			return true
		})
	}
	return nil
}

// markedDurableFields collects the field objects whose declarations carry a
// trailing //xvet:durable comment.
func markedDurableFields(pass *Pass) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Comment == nil {
					continue
				}
				durable := false
				for _, c := range field.Comment.List {
					if strings.HasPrefix(c.Text, "//xvet:durable") {
						durable = true
					}
				}
				if !durable {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

// durableTarget reports whether an assignment destination resolves to a
// marked field: a selector of the field itself, or an index expression over
// a marked map/slice field.
func durableTarget(pass *Pass, marked map[types.Object]bool, lhs ast.Expr) (string, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if obj := pass.Info.ObjectOf(e.Sel); obj != nil && marked[obj] {
				return e.Sel.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// enclosingFunc returns the innermost function declaration or literal on
// the ancestor stack (excluding the node itself).
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// containsPersistCall reports whether fn's body calls a persisting
// function: any callee named persist* (the tree's pairing helpers) or
// Append (a direct WAL write).
func containsPersistCall(fn ast.Node) bool {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if strings.HasPrefix(name, "persist") || name == "Append" {
			found = true
		}
		return !found
	})
	return found
}
