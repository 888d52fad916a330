package arenaalias_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/arenaalias"
)

// The in-process tests typecheck snippets against stub packages that
// carry the real import paths, so the checker's type matching is
// exercised without export data or a child process.

const tensorStub = `package tensor
type Tensor struct{ F []float32 }
`

const execStub = `package exec
import "repro/internal/tensor"
type Arena struct{ Offsets map[string]int64 }
func NewArena(offsets map[string]int64, size int64) *Arena { return &Arena{} }
func (a *Arena) Release()                                 {}
func (a *Arena) Detach(outputs map[string]*tensor.Tensor) {}
type Result struct{ Outputs map[string]*tensor.Tensor }
`

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("stub importer: unknown package %q", path)
}

func typecheck(t *testing.T, fset *token.FileSet, imp types.Importer, path, src string) (*types.Package, *ast.File, *types.Info) {
	t.Helper()
	f, err := parser.ParseFile(fset, path+"/src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return pkg, f, info
}

// checkSnippet runs the analyzer over one fixture source string and
// returns the set of function names mentioned in its diagnostics.
func checkSnippet(t *testing.T, src string) map[string]int {
	t.Helper()
	fset := token.NewFileSet()
	imp := mapImporter{}
	imp["repro/internal/tensor"], _, _ = typecheck(t, fset, imp, "repro/internal/tensor", tensorStub)
	imp["repro/internal/exec"], _, _ = typecheck(t, fset, imp, "repro/internal/exec", execStub)
	_, f, info := typecheck(t, fset, imp, "repro/internal/lint/arenaalias/fixture", src)
	found := map[string]int{}
	for _, d := range arenaalias.Check(fset, []*ast.File{f}, info) {
		found[strings.Fields(d.Message)[0]]++
	}
	return found
}

func TestCheckFlagsLeaksOnly(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "arenauser", "arenauser.go"))
	if err != nil {
		t.Fatal(err)
	}
	found := checkSnippet(t, string(src))
	for _, want := range []string{"leakReturn", "leakStore"} {
		if found[want] == 0 {
			t.Errorf("%s not flagged (findings: %v)", want, found)
		}
	}
	for name := range found {
		if !strings.HasPrefix(name, "leak") {
			t.Errorf("clean function %s flagged (findings: %v)", name, found)
		}
	}
}

func TestCheckChannelSend(t *testing.T) {
	found := checkSnippet(t, `package fixture
import (
	"repro/internal/exec"
	"repro/internal/tensor"
)
func leakSend(ch chan *tensor.Tensor, a *exec.Arena, t *tensor.Tensor) {
	ch <- t
	a.Release()
}
var _ = leakSend
`)
	if found["leakSend"] == 0 {
		t.Errorf("channel send not flagged (findings: %v)", found)
	}
}

func TestCheckIgnoresTensorFreeTypes(t *testing.T) {
	found := checkSnippet(t, `package fixture
import "repro/internal/exec"
func sizes(a *exec.Arena) map[string]int64 {
	defer a.Release()
	return a.Offsets
}
var _ = sizes
`)
	if len(found) != 0 {
		t.Errorf("tensor-free return flagged: %v", found)
	}
}

// TestVetTool builds cmd/arenaalias and drives it the way CI does —
// through `go vet -vettool` — against the fixture package, pinning the
// hand-rolled unitchecker protocol end to end.
func TestVetTool(t *testing.T) {
	goTool, err := osexec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "arenaalias")
	build := osexec.Command(goTool, "build", "-o", tool, "./cmd/arenaalias")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	vet := osexec.Command(goTool, "vet", "-vettool="+tool,
		"./internal/lint/arenaalias/testdata/arenauser")
	vet.Dir = root
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet should fail on the fixture package; output:\n%s", out)
	}
	text := string(out)
	for _, want := range []string{"leakReturn", "leakStore"} {
		if !strings.Contains(text, want) {
			t.Errorf("vettool output missing %s finding:\n%s", want, text)
		}
	}
	for _, clean := range []string{"okDetach", "okDeferredDetach", "okNoRelease", "okNilStore"} {
		if strings.Contains(text, clean) {
			t.Errorf("vettool flagged clean function %s:\n%s", clean, text)
		}
	}

	// The real tree must be clean: GuardedRun detaches before releasing,
	// and nothing else releases an arena while tensors escape.
	clean := osexec.Command(goTool, "vet", "-vettool="+tool, "./...")
	clean.Dir = root
	if out, err := clean.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool over the repository found issues: %v\n%s", err, out)
	}
}
