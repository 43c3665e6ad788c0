// Package lint is a repo-native static-analysis suite for the matproj
// datastore. It enforces invariants the type system cannot see — the
// ones the paper's datastore credibility rests on:
//
//   - clockdiscipline: no wall-clock reads outside the injectable
//     clock (determinism of the fault/lease machinery).
//   - seededrand: no global math/rand in internal/ (determinism of
//     faults.Injector replay).
//   - fsyncerr: no unchecked Sync/Flush/Write/Close errors on write
//     paths (crash safety, §IV-C).
//   - docaliasing: documents returned by datastore/queryengine reads
//     are never mutated without an intervening Copy (the store, the
//     query engine, and the wire share them).
//   - lockheld: no file/network I/O or channel send while a sync
//     mutex is held in datastore/cluster/fireworks.
//   - wrapcheck: cross-package error returns in cluster/restapi wrap
//     with %w or map to a typed sentinel (retry classification).
//
// Everything here is stdlib-only: go/parser + go/ast + go/types with
// the source importer, matching the module's no-dependency policy.
//
// Suppression: a finding is silenced by
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line directly above it, or for a whole
// file by //lint:file-ignore at any top-level comment. The reason is
// mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, attributed to an analyzer and a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path; analyzers scope themselves by its
	// module-relative form (see Config.Rel).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker complaints. Analysis still runs
	// on partial information; the driver surfaces them separately.
	TypeErrors []error
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	// Doc is a one-line description of the invariant guarded.
	Doc string
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) context handed to Run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Cfg      *Config
	// Prog is the shared interprocedural index (call graph, summaries)
	// over every package in the run. Built lazily on first use, so the
	// intraprocedural analyzers pay nothing for it.
	Prog  *Program
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config carries the repo policy: which module this is and where each
// analyzer applies. Paths are module-relative prefixes ("internal/obs"
// matches internal/obs and internal/obs/...).
type Config struct {
	// ModulePath is the module's import-path prefix ("matproj").
	ModulePath string
	// ClockAllow lists prefixes where wall-clock calls are permitted.
	ClockAllow []string
	// RandScope lists prefixes where seededrand applies.
	RandScope []string
	// FsyncScope lists prefixes where fsyncerr applies.
	FsyncScope []string
	// AliasScope lists prefixes where docaliasing applies.
	AliasScope []string
	// LockScope lists prefixes where lockheld applies.
	LockScope []string
	// WrapScope lists prefixes where wrapcheck applies.
	WrapScope []string
	// LockOrderScope lists prefixes where lockorder applies.
	LockOrderScope []string
	// GoroScope lists prefixes where goroleak applies.
	GoroScope []string
	// AtomicScope lists prefixes where atomicmix applies.
	AtomicScope []string
	// GenScope lists prefixes where gendiscipline applies.
	GenScope []string
	// GenCollections are the generation-counted container shapes
	// gendiscipline enforces (see that analyzer's doc).
	GenCollections []GenCollection
	// GenPairs are the write-method/bump-method pairings gendiscipline
	// enforces on routed write paths.
	GenPairs []GenPair
}

// DefaultConfig is the policy for this repository.
func DefaultConfig(modulePath string) *Config {
	return &Config{
		ModulePath: modulePath,
		// obs exists to measure wall time; vclock is the injection
		// point's one sanctioned implementation; cmd mains and
		// examples run in real time by definition.
		ClockAllow: []string{"internal/obs", "internal/vclock", "cmd", "examples"},
		RandScope:  []string{"internal"},
		FsyncScope: []string{"internal"},
		AliasScope: []string{"internal", "cmd", "examples"},
		LockScope:  []string{"internal/datastore", "internal/cluster", "internal/fireworks"},
		WrapScope:  []string{"internal/cluster", "internal/restapi"},
		// The interprocedural suite covers all of internal/; the
		// generation protocol only has meaning where the datastore,
		// the query engine, and the router meet.
		LockOrderScope: []string{"internal"},
		GoroScope:      []string{"internal"},
		AtomicScope:    []string{"internal"},
		GenScope:       []string{"internal/datastore", "internal/queryengine", "internal/cluster"},
		GenCollections: []GenCollection{{
			TypeName:   "Collection",
			LockField:  "mu",
			BumpMethod: "bumpGenLocked",
			DataFields: []string{"docs", "order", "seq", "seqNext", "indexes", "ordered", "bytes"},
		}},
		GenPairs: []GenPair{{
			TypeName:    "Router",
			WriteMethod: "writeOnGroup",
			BumpMethod:  "bumpGen",
		}},
	}
}

// Rel returns path relative to the module root ("" for the root
// package, "internal/obs" for matproj/internal/obs). Paths outside the
// module are returned unchanged.
func (c *Config) Rel(path string) string {
	if path == c.ModulePath {
		return ""
	}
	return strings.TrimPrefix(path, c.ModulePath+"/")
}

// inScope reports whether rel matches any prefix (whole path elements).
func inScope(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full suite in stable order: the six
// intraprocedural checks from PR 4, then the four interprocedural ones
// built on the shared call-graph layer (callgraph.go).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ClockDiscipline,
		SeededRand,
		FsyncErr,
		DocAliasing,
		LockHeld,
		WrapCheck,
		LockOrder,
		GoroLeak,
		GenDiscipline,
		AtomicMix,
	}
}

// Select filters the suite by -only / -skip style name lists (nil means
// no filter). Unknown names are reported as an error.
func Select(all []*Analyzer, only, skip []string) ([]*Analyzer, error) {
	known := map[string]*Analyzer{}
	for _, a := range all {
		known[a.Name] = a
	}
	for _, n := range append(append([]string{}, only...), skip...) {
		if known[n] == nil {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	skipSet := map[string]bool{}
	for _, n := range skip {
		skipSet[n] = true
	}
	var out []*Analyzer
	for _, a := range all {
		if len(only) > 0 {
			found := false
			for _, n := range only {
				if n == a.Name {
					found = true
				}
			}
			if !found {
				continue
			}
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to one package and returns surviving
// diagnostics: suppression directives are honored, malformed ones are
// reported under the pseudo-analyzer "lint". The interprocedural
// analyzers see a single-package Program — fixtures stay
// self-contained; use RunAll/RunProgram for whole-module analysis.
func Run(pkg *Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	return runOne(NewProgram([]*Package{pkg}, cfg), pkg, cfg, analyzers)
}

func runOne(prog *Program, pkg *Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Cfg: cfg, Prog: prog, diags: &diags}
		a.Run(pass)
	}
	idx, bad := buildIgnoreIndex(pkg)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		if !idx.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

// RunAll runs the analyzers over every package with one shared
// interprocedural Program and concatenates the results.
func RunAll(pkgs []*Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(NewProgram(pkgs, cfg), pkgs, analyzers)
}

// RunProgram runs the analyzers over the report packages against an
// existing Program, which may index a superset (mplint builds the
// Program over the whole module so package patterns narrow reporting,
// not the interprocedural horizon).
func RunProgram(prog *Program, report []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range report {
		out = append(out, runOne(prog, p, prog.Cfg, analyzers)...)
	}
	return out
}

// ---- Suppression ----------------------------------------------------

var ignoreRe = regexp.MustCompile(`^//\s*lint:(ignore|file-ignore)\s+(\S+)(\s+(.*))?$`)

type ignoreDirective struct {
	line      int
	analyzers map[string]bool
	wholeFile bool
	reason    string
	pos       token.Position
}

// Ignore is one active suppression directive, for review tooling
// (mplint -ignored).
type Ignore struct {
	Pos       token.Position
	Analyzers []string
	WholeFile bool
	Reason    string
}

// Ignores lists every well-formed suppression directive in pkg, sorted
// by position. Malformed directives are not included — running the
// suite reports those.
func Ignores(pkg *Package) []Ignore {
	idx, _ := buildIgnoreIndex(pkg)
	var out []Ignore
	for _, dirs := range idx.byFile {
		for _, d := range dirs {
			names := make([]string, 0, len(d.analyzers))
			for n := range d.analyzers {
				names = append(names, n)
			}
			sort.Strings(names)
			out = append(out, Ignore{Pos: d.pos, Analyzers: names, WholeFile: d.wholeFile, Reason: d.reason})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

type ignoreIndex struct {
	// byFile maps filename to its directives.
	byFile map[string][]ignoreDirective
}

func buildIgnoreIndex(pkg *Package) (*ignoreIndex, []Diagnostic) {
	idx := &ignoreIndex{byFile: map[string][]ignoreDirective{}}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), "lint:") {
						bad = append(bad, Diagnostic{
							Analyzer: "lint",
							Pos:      pkg.Fset.Position(c.Pos()),
							Message:  "malformed lint directive (want //lint:ignore <analyzer> <reason>)",
						})
					}
					continue
				}
				if strings.TrimSpace(m[4]) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						Pos:      pkg.Fset.Position(c.Pos()),
						Message:  fmt.Sprintf("lint:%s directive needs a reason", m[1]),
					})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(m[2], ",") {
					names[strings.TrimSpace(n)] = true
				}
				pos := pkg.Fset.Position(c.Pos())
				idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], ignoreDirective{
					line:      pos.Line,
					analyzers: names,
					wholeFile: m[1] == "file-ignore",
					reason:    strings.TrimSpace(m[4]),
					pos:       pos,
				})
			}
		}
	}
	return idx, bad
}

// suppressed reports whether d is covered by a directive: file-wide, on
// the same line, or on the line directly above.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	for _, dir := range idx.byFile[d.Pos.Filename] {
		if !dir.analyzers[d.Analyzer] {
			continue
		}
		if dir.wholeFile || dir.line == d.Pos.Line || dir.line+1 == d.Pos.Line {
			return true
		}
	}
	return false
}
