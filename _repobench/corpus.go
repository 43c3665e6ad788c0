package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"matproj/internal/crystal"
	"matproj/internal/document"
)

// corpusSize is the number of materials documents every deployment is
// loaded with.
const corpusSize = 20000

// elementPool is the element alphabet of the corpus. Oxygen and lithium
// are drawn far more often than the rest (see drawElements), as in the
// oxide- and battery-heavy Materials Project data, so the paper's
// {elements: {$all: [Li, O]}} query matches on the order of a thousand
// documents.
var elementPool = []string{
	"Li", "O", "Na", "K", "Mg", "Ca", "Sr", "Ba", "Al", "Si", "P", "S",
	"Cl", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn", "Ga", "Ge",
	"Se", "Br", "Y", "Zr", "Nb", "Mo", "Sn", "Sb", "Te", "La", "W", "Bi", "N",
}

// composition is one distinct reduced formula of the corpus.
type composition struct {
	comp     crystal.Composition
	pretty   string   // reduced formula, as stored in pretty_formula
	elements []string // sorted symbols
}

// spacegroups are the space groups generated documents report.
var spacegroups = []struct {
	symbol string
	number int64
	system string
}{
	{"Fm-3m", 225, "cubic"}, {"P6_3/mmc", 194, "hexagonal"}, {"Pnma", 62, "orthorhombic"},
	{"C2/m", 12, "monoclinic"}, {"R-3m", 166, "trigonal"}, {"P-1", 2, "triclinic"},
	{"I4/mmm", 139, "tetragonal"}, {"P2_1/c", 14, "monoclinic"},
}

// corpus is the generated data set plus the derived facts the request
// generators draw from.
type corpus struct {
	n int // documents generated
	// docs are the documents; the request streams do not use them, so a
	// run drops them once the deployment is loaded.
	docs  []document.D
	comps []composition
	// formulas holds pretty formulas a formula GET resolves, each shared
	// by exactly three documents, so every formula GET costs the same.
	formulas []string
	// systems counts documents per element set (sorted symbols joined
	// by "-"), so chemsys GETs can be drawn among non-empty systems.
	systems map[string]int
	// liO holds the sorted nelectrons values of documents containing both
	// Li and O, so paper-query cut-offs can be chosen by result size.
	liO []float64
}

// drawElements picks a material's element set: O with probability 0.5,
// Li with probability 0.25, the rest uniformly from the pool.
func drawElements(rng *rand.Rand) []string {
	n := 2
	switch r := rng.Float64(); {
	case r < 0.35:
		n = 2
	case r < 0.8:
		n = 3
	default:
		n = 4
	}
	chosen := map[string]bool{}
	if rng.Float64() < 0.5 {
		chosen["O"] = true
	}
	if rng.Float64() < 0.25 {
		chosen["Li"] = true
	}
	for len(chosen) < n {
		chosen[elementPool[2+rng.Intn(len(elementPool)-2)]] = true
	}
	out := make([]string, 0, len(chosen))
	for e := range chosen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// round keeps generated floats short in JSON.
func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

// genCompositions draws n distinct reduced compositions.
func genCompositions(rng *rand.Rand, n int) []composition {
	seen := map[string]bool{}
	var out []composition
	for len(out) < n {
		els := drawElements(rng)
		comp := crystal.Composition{}
		for _, e := range els {
			comp[e] = float64(1 + rng.Intn(4))
		}
		reduced, _ := comp.Reduced()
		pretty := reduced.ReducedFormula()
		if seen[pretty] {
			continue
		}
		seen[pretty] = true
		out = append(out, composition{comp: reduced, pretty: pretty, elements: reduced.Elements()})
	}
	return out
}

// corpusID is the id of the i-th corpus document.
func corpusID(i int) string { return fmt.Sprintf("mat-%06d", i) }

// genCorpus builds n materials documents from seed. Ids are mat-NNNNNN
// in insertion order; each document carries the scalar properties the
// API serves, an elements array and a nested structure, about 1.3 KB of
// JSON in all.
func genCorpus(seed int64, n int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	// About three polymorphs per formula, so a formula GET returns a few
	// documents.
	comps := genCompositions(rng, n/3+1)
	c := &corpus{n: n, docs: make([]document.D, 0, n), comps: comps, systems: map[string]int{}}
	polymorphs := map[string]int{}
	for i := 0; i < n; i++ {
		cp := comps[rng.Intn(len(comps))]
		d := materialDoc(rng, corpusID(i), cp)
		c.docs = append(c.docs, d)
		c.systems[strings.Join(cp.elements, "-")]++
		polymorphs[cp.pretty]++
		if cp.comp.Contains("Li", "O") {
			c.liO = append(c.liO, d["nelectrons"].(float64))
		}
	}
	sort.Float64s(c.liO)
	for f, count := range polymorphs {
		// A formula GET filters on the parsed identifier's Formula(); keep
		// only formulas that round-trip to the stored value.
		if parsed, err := crystal.ParseFormula(f); err == nil && parsed.Formula() == f && count == 3 {
			c.formulas = append(c.formulas, f)
		}
	}
	sort.Strings(c.formulas)
	return c
}

// materialDoc generates one document of the materials collection.
func materialDoc(rng *rand.Rand, id string, cp composition) document.D {
	z := 1 + rng.Intn(2) // formula units per cell
	cell := crystal.Composition{}
	for e, amt := range cp.comp {
		cell[e] = amt * float64(z)
	}
	var sites []any
	for _, e := range cp.elements {
		for k := 0; k < int(cell[e]) && len(sites) < 16; k++ {
			sites = append(sites, map[string]any{
				"species": e,
				"abc":     []any{round(rng.Float64(), 4), round(rng.Float64(), 4), round(rng.Float64(), 4)},
			})
		}
	}
	a, b, cc := 3+rng.Float64()*5, 3+rng.Float64()*5, 3+rng.Float64()*8
	gap := 0.0
	if rng.Float64() < 0.6 {
		gap = round(0.05+rng.Float64()*6, 4)
	}
	nsites := int64(cell.NumAtoms())
	epa := round(-1-rng.Float64()*8, 5)
	ntasks := 1 + rng.Intn(3)
	taskIDs := make([]any, ntasks)
	for k := range taskIDs {
		taskIDs[k] = fmt.Sprintf("task-%s-%d", id[4:], k)
	}
	elems := make([]any, len(cp.elements))
	for k, e := range cp.elements {
		elems[k] = e
	}
	functional := "GGA"
	if rng.Float64() < 0.3 {
		functional = "GGA+U"
	}
	sg := spacegroups[rng.Intn(len(spacegroups))]
	unitCell := map[string]any{}
	for e, amt := range cell {
		unitCell[e] = amt
	}
	eHull := 0.0
	if rng.Float64() < 0.7 {
		eHull = round(rng.Float64()*0.4, 5)
	}
	return document.D{
		"_id":            id,
		"structure_id":   "icsd-" + id[4:],
		"formula":        cell.Formula(),
		"pretty_formula": cp.pretty,
		"elements":       elems,
		"nelements":      int64(len(cp.elements)),
		"nsites":         nsites,
		"nelectrons":     cell.NumElectrons(),
		"band_gap":       gap,
		"e_per_atom":     epa,
		"final_energy":   round(epa*float64(nsites), 5),
		"density":        round(1.5+rng.Float64()*8, 4),
		"max_force":      round(rng.Float64()*0.05, 5),
		"functional":     functional,
		"task_type":      "GGA Structure Optimization",
		"spacegroup": map[string]any{
			"symbol": sg.symbol, "number": sg.number, "crystal_system": sg.system, "source": "spglib",
		},
		"unit_cell_formula":         unitCell,
		"e_above_hull":              eHull,
		"is_stable":                 eHull == 0,
		"formation_energy_per_atom": round(-rng.Float64()*3, 5),
		"total_magnetization":       round(rng.Float64()*4, 4),
		"best_task_id":              taskIDs[0],
		"task_ids":                  taskIDs,
		"ntasks":                    int64(ntasks),
		"structure": map[string]any{
			"lattice": map[string]any{
				"matrix": []any{
					[]any{round(a, 4), 0.0, 0.0},
					[]any{0.0, round(b, 4), 0.0},
					[]any{0.0, 0.0, round(cc, 4)},
				},
				"a": round(a, 4), "b": round(b, 4), "c": round(cc, 4),
				"alpha": 90.0, "beta": 90.0, "gamma": 90.0,
				"volume": round(a*b*cc, 4),
			},
			"sites": sites,
		},
	}
}

// chemsysMatches counts the documents a chemsys GET for the given
// elements returns: those whose element set is a subset of them.
func (c *corpus) chemsysMatches(elements []string) int {
	els := append([]string(nil), elements...)
	sort.Strings(els)
	n := 0
	for mask := 1; mask < 1<<len(els); mask++ {
		var sub []string
		for i, e := range els {
			if mask&(1<<i) != 0 {
				sub = append(sub, e)
			}
		}
		n += c.systems[strings.Join(sub, "-")]
	}
	return n
}
