// Package wirecompat pins the rooftune/result/v1 wire schema to a
// committed golden (api/wire_v1.txt), and the rooftune/serve/v1 daemon
// contract to a second golden (api/serve_v1.txt).
//
// The serving tier's whole contract rests on these schemas: cached
// Results are stored as serialized bytes and replayed verbatim, session
// fingerprints hash bench.AppendConfigCanonical renderings, and rooftool
// -remote decodes what an arbitrary daemon emitted. A silent field
// rename, retype, or omitempty flip in the wire structs changes the
// bytes without failing any type check. This analyzer walks the wire
// type graph of the root package (wire.go) and internal/bench
// (internal/bench/wire.go) — every package-level struct with json tags,
// plus every named struct reachable through their fields — derives the
// full JSON field census (name, type, options), maps every bench.Config
// variant to its wire envelope via MarshalConfig, and diffs the census
// against the golden. Removed or retyped fields are breaking findings;
// additions require regenerating the golden with rooflint
// -write-goldens.
//
// The serve/v1 golden has two sections: "servev1" is the same struct
// field census over the daemon's request/response shapes, and "enum"
// pins the exported members of the package's named string enumerations
// (job states, error codes) — clients switch on those values, so
// removing or renaming one breaks dispatch exactly like a field
// removal.
//
// The dist/v1 distributed-sweep contract (node specs, outcomes, bound
// updates, heartbeats — what coordinators and workers exchange) is
// pinned the same way to api/dist_v1.txt: a coordinator and a worker
// from different builds must agree on every field, or a requeued node
// decodes differently than the original dispatch.
package wirecompat

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"rooftune/internal/lint/analysis"
	"rooftune/internal/lint/configsum"
	"rooftune/internal/lint/golden"
	"rooftune/internal/lint/scope"
)

// Analyzer is the wirecompat contract checker.
var Analyzer = &analysis.Analyzer{
	Name: "wirecompat",
	Doc: "the rooftune/result/v1, rooftune/serve/v1 and rooftune/dist/v1 wire censuses must match their api/ goldens\n\n" +
		"Removed or retyped wire fields break cached Results and remote clients;\n" +
		"additions require regenerating the goldens with rooflint -write-goldens.",
	Run: run,
}

// The analyzer's scope: the packages that define the v1 wire schemas
// (fixtures mirror the suffixes).
const (
	rootPackage  = "rooftune"
	benchPackage = "internal/bench"
	servePackage = "serve/v1"
	distPackage  = "dist/v1"
)

// GoldenRel is the result/v1 golden's path relative to the module root
// (the root package's directory).
const GoldenRel = "api/wire_v1.txt"

// ServeGoldenRel is the serve/v1 golden's path relative to the module
// root.
const ServeGoldenRel = "api/serve_v1.txt"

// DistGoldenRel is the dist/v1 golden's path relative to the module
// root.
const DistGoldenRel = "api/dist_v1.txt"

const header = `rooftune/result/v1 wire schema census. Generated by rooflint -write-goldens; checked by the wirecompat analyzer.
Each line is section structOrEnvelope.jsonField = type[,options]. Removing or retyping a line breaks cached Results and remote clients.`

const serveHeader = `rooftune/serve/v1 daemon wire contract census. Generated by rooflint -write-goldens; checked by the wirecompat analyzer.
Sections: "servev1 Struct.jsonField = type[,options]" is the request/response field census; "enum Type.Const = value" pins the job-state and error-code enumerations clients dispatch on. Removing or retyping a line breaks deployed clients.`

const distHeader = `rooftune/dist/v1 distributed-sweep wire contract census. Generated by rooflint -write-goldens; checked by the wirecompat analyzer.
Sections: "distv1 Struct.jsonField = type[,options]" is the node-spec/outcome/bound/heartbeat field census; "enum Type.Const = value" pins the error-code enumeration. Removing or retyping a line breaks mixed-build coordinator/worker fleets.`

func run(pass *analysis.Pass) (any, error) {
	isRoot := scope.Match(pass.Pkg.Path(), rootPackage)
	isBench := scope.Match(pass.Pkg.Path(), benchPackage)
	if scope.Match(pass.Pkg.Path(), servePackage) {
		return runContract(pass, contract{
			section: "servev1", goldenRel: ServeGoldenRel,
			header: serveHeader, label: "serve/v1",
		})
	}
	if scope.Match(pass.Pkg.Path(), distPackage) {
		return runContract(pass, contract{
			section: "distv1", goldenRel: DistGoldenRel,
			header: distHeader, label: "dist/v1",
		})
	}
	if !isRoot && !isBench {
		return nil, nil
	}
	dir := packageDir(pass)
	if isBench {
		// internal/bench sits two levels below the module root; the
		// fixtures mirror the layout.
		dir = filepath.Dir(filepath.Dir(dir))
	}
	path := filepath.Join(dir, filepath.FromSlash(GoldenRel))
	section := pass.Pkg.Name()
	fresh := Render(pass.Fset, pass.Pkg)
	if isBench {
		fresh = append(fresh, envelopeCensus(pass)...)
	}
	for i := range fresh {
		fresh[i].ID = section + " " + fresh[i].ID
	}
	golden.Sort(fresh)

	if golden.WriteMode {
		existing, _, err := golden.Read(path)
		if err != nil {
			return nil, err
		}
		return nil, golden.Write(path, header, golden.ReplaceSection(existing, section, fresh))
	}

	goldenLines, ok, err := golden.Read(path)
	if err != nil {
		return nil, err
	}
	anchor := packagePos(pass)
	if !ok {
		pass.Reportf(anchor, "wire golden %s missing; generate it with rooflint -write-goldens", GoldenRel)
		return nil, nil
	}
	for _, d := range golden.Compare(golden.Section(goldenLines, section), fresh) {
		switch d.Kind {
		case golden.Removed:
			pass.Reportf(anchor,
				"wire field removed from rooftune/result/v1: %q (golden %s); cached Results and remote decoders still carry it — restore it or declare the schema break by regenerating the golden",
				golden.Line{ID: d.ID, Rendering: d.Golden}.String(), GoldenRel)
		case golden.Changed:
			pass.Reportf(posOf(pass, d.ID, anchor),
				"wire field retyped: %s is now %q, golden %s has %q; this changes the serialized bytes under every cached fingerprint — revert it or declare the schema break by regenerating the golden",
				d.ID, d.Fresh, GoldenRel, d.Golden)
		case golden.Added:
			pass.Reportf(posOf(pass, d.ID, anchor),
				"wire field %q not in the wire golden; declare the addition with rooflint -write-goldens",
				golden.Line{ID: d.ID, Rendering: d.Fresh}.String())
		}
	}
	return nil, nil
}

// contract describes one versioned wire package pinned to its own
// whole-file golden: the census section prefix, the golden path, its
// header, and the label findings name it by.
type contract struct {
	section   string
	goldenRel string
	header    string
	label     string
}

// runContract checks (or writes) a versioned wire package's contract
// golden (serve/v1, dist/v1). One pass owns the whole file, so write
// mode rewrites it outright rather than replacing a section of a shared
// golden.
func runContract(pass *analysis.Pass, c contract) (any, error) {
	// The v1 packages sit two levels below the module root; fixtures
	// mirror the layout.
	dir := filepath.Dir(filepath.Dir(packageDir(pass)))
	path := filepath.Join(dir, filepath.FromSlash(c.goldenRel))
	fresh := Render(pass.Fset, pass.Pkg)
	for i := range fresh {
		fresh[i].ID = c.section + " " + fresh[i].ID
	}
	fresh = append(fresh, enumCensus(pass.Fset, pass.Pkg)...)
	golden.Sort(fresh)

	if golden.WriteMode {
		return nil, golden.Write(path, c.header, fresh)
	}

	goldenLines, ok, err := golden.Read(path)
	if err != nil {
		return nil, err
	}
	anchor := packagePos(pass)
	if !ok {
		pass.Reportf(anchor, "%s wire golden %s missing; generate it with rooflint -write-goldens", c.label, c.goldenRel)
		return nil, nil
	}
	for _, d := range golden.Compare(goldenLines, fresh) {
		switch d.Kind {
		case golden.Removed:
			pass.Reportf(anchor,
				"%s contract entry removed: %q (golden %s); deployed clients still depend on it — restore it or declare the contract break by regenerating the golden",
				c.label, golden.Line{ID: d.ID, Rendering: d.Golden}.String(), c.goldenRel)
		case golden.Changed:
			pass.Reportf(posOf(pass, d.ID, anchor),
				"%s contract entry changed: %s is now %q, golden %s has %q; this changes what deployed clients decode — revert it or declare the contract break by regenerating the golden",
				c.label, d.ID, d.Fresh, c.goldenRel, d.Golden)
		case golden.Added:
			pass.Reportf(posOf(pass, d.ID, anchor),
				"%s contract entry %q not in the wire golden; declare the addition with rooflint -write-goldens",
				c.label, golden.Line{ID: d.ID, Rendering: d.Fresh}.String())
		}
	}
	return nil, nil
}

// enumCensus pins the exported members of the package's own named
// string enumerations: every exported constant whose type is a named
// string type declared in this package renders as
// "enum Type.Const = value". Clients switch on these values (job
// states, error codes), so the census treats removing or revaluing one
// as a contract break.
func enumCensus(fset *token.FileSet, pkg *types.Package) []golden.Line {
	var lines []golden.Line
	s := pkg.Scope()
	for _, name := range s.Names() {
		c, ok := s.Lookup(name).(*types.Const)
		if !ok || !c.Exported() || inTestFile(fset, c.Pos()) {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Pkg() != pkg {
			continue
		}
		basic, ok := named.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsString == 0 {
			continue
		}
		lines = append(lines, golden.Line{
			ID:        fmt.Sprintf("enum %s.%s", named.Obj().Name(), name),
			Rendering: constant.StringVal(c.Val()),
		})
	}
	golden.Sort(lines)
	return lines
}

// Render walks the package's wire type graph and returns the JSON field
// census. Roots are the package-level struct types declared outside
// _test.go files that carry at least one json field tag; the walk
// follows named struct field types (through pointers, slices, arrays
// and map values) into any package, so a field whose type lives
// elsewhere (stats.Interval) is censused too.
func Render(fset *token.FileSet, pkg *types.Package) []golden.Line {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	type node struct {
		label string
		st    *types.Struct
	}
	var worklist []node
	seen := map[string]bool{}
	s := pkg.Scope()
	for _, name := range s.Names() {
		obj, ok := s.Lookup(name).(*types.TypeName)
		if !ok || obj.IsAlias() || inTestFile(fset, obj.Pos()) {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok || !hasJSONTag(st) {
			continue
		}
		seen[name] = true
		worklist = append(worklist, node{label: name, st: st})
	}

	var lines []golden.Line
	for len(worklist) > 0 {
		n := worklist[0]
		worklist = worklist[1:]
		for i := 0; i < n.st.NumFields(); i++ {
			f := n.st.Field(i)
			if !f.Exported() {
				continue // encoding/json never serializes unexported fields
			}
			jsonName, opts, serialized := jsonField(f.Name(), n.st.Tag(i))
			if !serialized {
				continue
			}
			rendering := types.TypeString(f.Type(), qual)
			if opts != "" {
				rendering += "," + opts
			}
			lines = append(lines, golden.Line{
				ID:        fmt.Sprintf("%s.%s", n.label, jsonName),
				Rendering: rendering,
			})
			if named := namedStruct(f.Type()); named != nil {
				label := named.Obj().Name()
				if named.Obj().Pkg() != nil && named.Obj().Pkg() != pkg {
					label = named.Obj().Pkg().Name() + "." + label
				}
				if !seen[label] {
					seen[label] = true
					worklist = append(worklist, node{label: label, st: named.Underlying().(*types.Struct)})
				}
			}
		}
		// Keep the BFS order-insensitive: sort the worklist by label so
		// the census is deterministic whatever order fields introduced
		// the nodes.
		sort.Slice(worklist, func(i, j int) bool { return worklist[i].label < worklist[j].label })
	}
	golden.Sort(lines)
	return lines
}

// envelopeCensus ties the wire schema to the configsum variant census:
// for every concrete bench.Config variant it records which wire
// envelope struct MarshalConfig packs it into, as an
// "envelope.<Variant> = <wireStruct>" line. A variant MarshalConfig
// does not pack is reported immediately — the wire layer would reject
// the config at runtime, which for a daemon means a campaign that can
// never be cached.
func envelopeCensus(pass *analysis.Pass) []golden.Line {
	obj, ok := pass.Pkg.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	variants := configsum.Variants(pass.Pkg, iface)
	if len(variants) == 0 {
		return nil
	}
	byVariant := map[string]string{}
	var marshal *ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "MarshalConfig" {
				marshal = fd
			}
		}
	}
	if marshal != nil {
		ast.Inspect(marshal, func(n ast.Node) bool {
			sw, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			for _, stmt := range sw.Body.List {
				cc := stmt.(*ast.CaseClause)
				for _, texpr := range cc.List {
					t := pass.TypesInfo.Types[texpr].Type
					named, ok := t.(*types.Named)
					if !ok {
						continue
					}
					if env := envelopeOf(pass, cc); env != "" {
						byVariant[named.Obj().Name()] = env
					}
				}
			}
			return false
		})
	}
	var lines []golden.Line
	for _, v := range variants {
		env, ok := byVariant[v]
		if !ok {
			pos := obj.Pos()
			if marshal != nil {
				pos = marshal.Pos()
			}
			pass.Reportf(pos,
				"bench.Config variant %s has no wire envelope in MarshalConfig; a config the wire layer cannot encode can never be cached or served", v)
			continue
		}
		lines = append(lines, golden.Line{ID: "envelope." + v, Rendering: env})
	}
	return lines
}

// envelopeOf finds the wire struct a MarshalConfig case packs: the type
// of the composite literal assigned within the clause body.
func envelopeOf(pass *analysis.Pass, cc *ast.CaseClause) string {
	var name string
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok || name != "" {
				return true
			}
			if t := pass.TypesInfo.Types[cl].Type; t != nil {
				if named, ok := t.(*types.Named); ok {
					if _, isStruct := named.Underlying().(*types.Struct); isStruct {
						name = named.Obj().Name()
					}
				}
			}
			return name == ""
		})
	}
	return name
}

// jsonField resolves a field's JSON name and options per encoding/json
// tag rules. serialized is false for `json:"-"`.
func jsonField(goName, tag string) (name, opts string, serialized bool) {
	jtag, ok := reflect.StructTag(tag).Lookup("json")
	if !ok {
		return goName, "", true
	}
	if jtag == "-" {
		return "", "", false
	}
	name, opts, _ = strings.Cut(jtag, ",")
	if name == "" {
		name = goName
	}
	opts = strings.Trim(opts, ",")
	return name, opts, true
}

// hasJSONTag reports whether any field of the struct carries a json tag
// — the marker that makes a package-level struct a wire-census root.
func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// namedStruct unwraps pointers, slices, arrays and map values down to a
// named struct type, or nil.
func namedStruct(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); ok {
				return u
			}
			return nil
		default:
			return nil
		}
	}
}

func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

func packageDir(pass *analysis.Pass) string {
	return filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
}

func packagePos(pass *analysis.Pass) token.Pos {
	best := pass.Files[0].Package
	bestName := pass.Fset.Position(best).Filename
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Package).Filename
		if !strings.HasSuffix(name, "_test.go") && (strings.HasSuffix(bestName, "_test.go") || name < bestName) {
			best, bestName = f.Package, name
		}
	}
	return best
}

// posOf anchors a finding on the censused struct's declaration when it
// lives in this package ("bench dgemmConfigWire.n" -> dgemmConfigWire),
// falling back to the package clause.
func posOf(pass *analysis.Pass, id string, fallback token.Pos) token.Pos {
	fields := strings.Fields(id)
	if len(fields) != 2 {
		return fallback
	}
	owner, _, _ := strings.Cut(fields[1], ".")
	if obj := pass.Pkg.Scope().Lookup(owner); obj != nil {
		return obj.Pos()
	}
	return fallback
}
