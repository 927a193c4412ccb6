// Package genotype defines the data model for case/control SNP studies:
// biallelic markers, diploid individuals with affection status, and the
// dataset container corresponding to the first of the three data tables
// the paper's biologists provide (SNP values for every person). The
// other two tables (per-SNP allele frequencies and pairwise
// disequilibrium) are derived views computed here and in package ld.
//
// Alleles follow the paper's coding: each SNP has two forms written "1"
// and "2". A diploid genotype is stored as the number of copies of
// allele 2 (0, 1 or 2), with a distinct missing marker.
package genotype

import (
	"fmt"
	"sort"
)

// Genotype is the number of copies of allele 2 carried at one SNP by
// one individual: 0 (homozygous 1/1), 1 (heterozygous 1/2) or 2
// (homozygous 2/2). Missing denotes an untyped marker.
type Genotype uint8

// Missing marks an untyped genotype.
const Missing Genotype = 255

// Valid reports whether g is 0, 1, 2 or Missing.
func (g Genotype) Valid() bool { return g <= 2 || g == Missing }

// String renders the genotype in the paper's two-allele notation.
func (g Genotype) String() string {
	switch g {
	case 0:
		return "11"
	case 1:
		return "12"
	case 2:
		return "22"
	case Missing:
		return "00"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(g))
	}
}

// Status is the disease status of an individual: the paper's groups A
// (affected), U (unaffected/healthy) and unknown.
type Status uint8

// The three affection groups of the study.
const (
	Affected Status = iota
	Unaffected
	Unknown
)

// String returns the one-letter code used in data files.
func (s Status) String() string {
	switch s {
	case Affected:
		return "A"
	case Unaffected:
		return "U"
	case Unknown:
		return "?"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(s))
	}
}

// ParseStatus converts a one-letter status code to a Status.
func ParseStatus(s string) (Status, error) {
	switch s {
	case "A", "a":
		return Affected, nil
	case "U", "u":
		return Unaffected, nil
	case "?", "X", "x":
		return Unknown, nil
	}
	return Unknown, fmt.Errorf("genotype: unknown status code %q", s)
}

// SNP describes one biallelic marker.
type SNP struct {
	// Name identifies the marker (e.g. "SNP8"). Names must be unique
	// within a dataset.
	Name string
	// Position is an optional physical coordinate in kilobases used by
	// the synthetic generator to shape linkage disequilibrium decay.
	Position float64
}

// Individual is one study subject: an ID, a disease status, and one
// genotype per dataset SNP.
type Individual struct {
	ID        string
	Status    Status
	Genotypes []Genotype
}

// Dataset holds a complete case/control study table.
type Dataset struct {
	SNPs        []SNP
	Individuals []Individual
}

// NumSNPs returns the number of markers.
func (d *Dataset) NumSNPs() int { return len(d.SNPs) }

// NumIndividuals returns the number of subjects.
func (d *Dataset) NumIndividuals() int { return len(d.Individuals) }

// CountByStatus returns how many individuals carry each status.
func (d *Dataset) CountByStatus() (affected, unaffected, unknown int) {
	for _, ind := range d.Individuals {
		switch ind.Status {
		case Affected:
			affected++
		case Unaffected:
			unaffected++
		default:
			unknown++
		}
	}
	return
}

// ByStatus returns the indices of individuals having the given status.
func (d *Dataset) ByStatus(s Status) []int {
	var out []int
	for i, ind := range d.Individuals {
		if ind.Status == s {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural invariants: unique SNP names, genotype
// vectors of the right length, and only valid genotype codes. It
// returns the first violation found.
func (d *Dataset) Validate() error {
	names := make(map[string]struct{}, len(d.SNPs))
	for i, s := range d.SNPs {
		if s.Name == "" {
			return fmt.Errorf("genotype: SNP %d has empty name", i)
		}
		if _, dup := names[s.Name]; dup {
			return fmt.Errorf("genotype: duplicate SNP name %q", s.Name)
		}
		names[s.Name] = struct{}{}
	}
	for i, ind := range d.Individuals {
		if len(ind.Genotypes) != len(d.SNPs) {
			return fmt.Errorf("genotype: individual %d (%s) has %d genotypes, want %d",
				i, ind.ID, len(ind.Genotypes), len(d.SNPs))
		}
		for j, g := range ind.Genotypes {
			if !g.Valid() {
				return fmt.Errorf("genotype: individual %d (%s) has invalid genotype %d at SNP %d",
					i, ind.ID, uint8(g), j)
			}
		}
		if ind.Status > Unknown {
			return fmt.Errorf("genotype: individual %d (%s) has invalid status %d",
				i, ind.ID, uint8(ind.Status))
		}
	}
	return nil
}

// AlleleFreq returns the frequencies of alleles 1 and 2 at SNP j,
// together with the number of typed individuals. Frequencies are 0
// when nobody is typed.
func (d *Dataset) AlleleFreq(j int) (p1, p2 float64, typed int) {
	count2 := 0
	for _, ind := range d.Individuals {
		g := ind.Genotypes[j]
		if g == Missing {
			continue
		}
		typed++
		count2 += int(g)
	}
	if typed == 0 {
		return 0, 0, 0
	}
	p2 = float64(count2) / float64(2*typed)
	return 1 - p2, p2, typed
}

// MinorAlleleFreq returns min(p1, p2) at SNP j.
func (d *Dataset) MinorAlleleFreq(j int) float64 {
	p1, p2, typed := d.AlleleFreq(j)
	if typed == 0 {
		return 0
	}
	if p1 < p2 {
		return p1
	}
	return p2
}

// MissingRate returns the overall fraction of missing genotype calls.
func (d *Dataset) MissingRate() float64 {
	total, missing := 0, 0
	for i := range d.Individuals {
		for _, g := range d.Individuals[i].Genotypes {
			total++
			if g == Missing {
				missing++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(missing) / float64(total)
}

// FreqTable returns the paper's second data table: for every SNP the
// frequency of each of its two alternatives.
func (d *Dataset) FreqTable() [][2]float64 {
	out := make([][2]float64, d.NumSNPs())
	for j := range out {
		p1, p2, _ := d.AlleleFreq(j)
		out[j] = [2]float64{p1, p2}
	}
	return out
}

// Subset returns a new dataset containing only the individuals whose
// indices are listed (in the given order). Genotype slices are shared,
// not copied; callers must not mutate them.
func (d *Dataset) Subset(indices []int) *Dataset {
	sub := &Dataset{SNPs: d.SNPs, Individuals: make([]Individual, len(indices))}
	for i, idx := range indices {
		sub.Individuals[i] = d.Individuals[idx]
	}
	return sub
}

// ColumnPatterns extracts, for each individual in rows, the genotype
// vector restricted to the SNP columns sites (which must be sorted
// indices). Individuals with a missing genotype at any selected site
// are dropped, mirroring the EH program's complete-case behaviour.
// Each returned pattern has one entry per selected site.
func (d *Dataset) ColumnPatterns(rows []int, sites []int) [][]Genotype {
	out := make([][]Genotype, 0, len(rows))
	for _, r := range rows {
		ind := &d.Individuals[r]
		pat := make([]Genotype, len(sites))
		ok := true
		for i, s := range sites {
			g := ind.Genotypes[s]
			if g == Missing {
				ok = false
				break
			}
			pat[i] = g
		}
		if ok {
			out = append(out, pat)
		}
	}
	return out
}

// SNPIndexByName returns a map from SNP name to column index.
func (d *Dataset) SNPIndexByName() map[string]int {
	m := make(map[string]int, len(d.SNPs))
	for i, s := range d.SNPs {
		m[s.Name] = i
	}
	return m
}

// SNPNames returns the names of the selected SNP columns.
func (d *Dataset) SNPNames(sites []int) []string {
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = d.SNPs[s].Name
	}
	return out
}

// SortSites sorts a site-index slice ascending (the canonical haplotype
// encoding of the paper keeps SNP indices in ascending order).
func SortSites(sites []int) { sort.Ints(sites) }
