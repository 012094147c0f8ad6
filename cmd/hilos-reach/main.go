// Command hilos-reach checks that every library function runs in a binary.
// It builds each main package of the repository's modules (cmd/*,
// examples/* and the bench harness) with inlining off (-gcflags=all=-l), so
// a function is linked as a symbol of its own exactly when a binary can
// reach it, reads the binaries' text symbols with `go tool nm`, and compares
// them against every top-level function and method declared in a non-test
// file of a non-main package.
//
// Usage, from the repository root:
//
//	go run ./cmd/hilos-reach
//
// It prints each declared function no binary links, with its position, and
// exits 1 if there was any (2 on a build or parse error). There are no
// exceptions: a helper only tests use belongs in a _test.go file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// pkg is the part of `go list -json` output the check reads.
type pkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

func main() {
	missing, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilos-reach:", err)
		os.Exit(2)
	}
	for _, m := range missing {
		fmt.Println("not linked by any binary:", m)
	}
	if len(missing) > 0 {
		os.Exit(1)
	}
	fmt.Println("every library function is linked by a binary")
}

// check runs the comparison over the module at root and every module
// nested below it. It returns the unlinked declarations (symbol and
// position), sorted.
func check(root string) (missing []string, err error) {
	mods, err := modules(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "hilos-reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}
	declared := map[string]string{} // symbol → file:line
	for i, dir := range mods {
		pkgs, err := list(dir)
		if err != nil {
			return nil, err
		}
		var mains []string
		for _, p := range pkgs {
			if p.Name == "main" {
				mains = append(mains, p.ImportPath)
			} else if err := declare(p, declared); err != nil {
				return nil, err
			}
		}
		if len(mains) == 0 {
			continue
		}
		out := filepath.Join(tmp, fmt.Sprint(i)) + string(filepath.Separator)
		if err := run(dir, nil, "go", append([]string{"build", "-gcflags=all=-l", "-o", out}, mains...)...); err != nil {
			return nil, err
		}
		bins, err := os.ReadDir(out)
		if err != nil {
			return nil, err
		}
		for _, b := range bins {
			var nm bytes.Buffer
			if err := run(dir, &nm, "go", "tool", "nm", filepath.Join(out, b.Name())); err != nil {
				return nil, err
			}
			if err := textSymbols(&nm, linked); err != nil {
				return nil, err
			}
		}
	}

	for sym, pos := range declared {
		if !linked[sym] {
			missing = append(missing, sym+" ("+pos+")")
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// modules returns root and every directory below it that holds a go.mod,
// skipping testdata and hidden directories.
func modules(root string) ([]string, error) {
	mods := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && name == "go.mod" && filepath.Dir(path) != root {
			mods = append(mods, filepath.Dir(path))
		}
		return nil
	})
	return mods, err
}

// list returns the packages of the module in dir.
func list(dir string) ([]pkg, error) {
	var buf bytes.Buffer
	if err := run(dir, &buf, "go", "list", "-json", "./..."); err != nil {
		return nil, err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(&buf); ; {
		var p pkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// declare adds the linker symbol of every top-level function and method in
// p's non-test files to declared. init functions and blank names have no
// callable symbol and are skipped.
func declare(p pkg, declared map[string]string) error {
	fset := token.NewFileSet()
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") || fn.Name.Name == "_" {
				continue
			}
			pos := fset.Position(fn.Pos())
			declared[symbol(p.ImportPath, fn)] = fmt.Sprintf("%s:%d", filepath.Join(p.Dir, name), pos.Line)
		}
	}
	return nil
}

// symbol returns the linker name of fn in package path, without type
// arguments: path.F, path.T.M or path.(*T).M.
func symbol(path string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return path + "." + fn.Name.Name
	}
	typ, ptr := fn.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = s.X, true
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return path + "." + recv + "." + fn.Name.Name
}

// textSymbols adds the name of every text (code) symbol in `go tool nm`
// output to linked, with type arguments stripped.
func textSymbols(r io.Reader, linked map[string]bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		code, name, ok := parseNM(sc.Text())
		if ok && (code == 'T' || code == 't') {
			linked[stripTypeArgs(name)] = true
		}
	}
	return sc.Err()
}

// parseNM splits one line of `go tool nm` output into its symbol code and
// name. The line is an address column at least eight wide (blank for
// undefined symbols), a space, the one-letter code, a space and the name.
// The name runs to the end of the line: a generic instantiation's name can
// hold spaces (go.shape.struct { ... }), so the line is cut by column, not
// split into whitespace fields.
func parseNM(line string) (code byte, name string, ok bool) {
	const addrWidth = 8
	if len(line) < addrWidth+4 {
		return 0, "", false
	}
	rest := line[addrWidth:]
	if strings.TrimLeft(line[:addrWidth], " ") != "" {
		// An address wider than the column pushes the rest right.
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			return 0, "", false
		}
		rest = rest[i:]
	}
	if len(rest) < 4 || rest[0] != ' ' || rest[2] != ' ' {
		return 0, "", false
	}
	return rest[1], rest[3:], true
}

// stripTypeArgs removes every bracketed type-argument list from a symbol
// name, so repro/x.(*heap[go.shape.int]).push reads repro/x.(*heap).push.
func stripTypeArgs(name string) string {
	if !strings.Contains(name, "[") {
		return name
	}
	var b strings.Builder
	depth := 0
	for _, c := range name {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// run executes a command in dir, writing its standard output to stdout
// (discarded when nil); a failure carries the command's standard error.
func run(dir string, stdout io.Writer, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return nil
}
