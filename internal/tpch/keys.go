package tpch

import (
	"fmt"
	"strings"
)

// firstYear is the calendar year of Date 0. The generator's order and
// ship dates all fall in firstYear..orderDateMax.Year().
const firstYear = 1992

// The l_returnflag and l_linestatus values the generator draws.
const returnFlags, lineStatuses = "RAN", "OF"

// rowKeys holds what the queries would otherwise compute per row from
// strings: Q9's and Q13's filters and the group keys of Q1, Q7, Q8 and
// Q9. NewCatalog builds it once per catalog, and it is read-only after:
// a stateless Process runs on several partitions at once.
type rowKeys struct {
	flagKeys    []string   // Q1 "R|F", by returnFlags and lineStatuses index
	years       []string   // Q8 "1995", by year - firstYear
	nationYears [][]string // Q9 "FRANCE|1995", by nation key and year - firstYear

	// Q7's two nations and its "FRANCE|GERMANY|1995" keys in either
	// direction, by year - firstYear.
	france, germany              int32
	franceGermany, germanyFrance []string

	greenPart   []bool // Q9: the part's name contains "green", by part key
	specialWord []bool // Q13: the word contains "special", by commentWords index
}

func newRowKeys(ds *Dataset) rowKeys {
	nYears := orderDateMax.Year() - firstYear + 1
	k := rowKeys{
		years:       make([]string, nYears),
		nationYears: make([][]string, len(ds.Nations)),
		greenPart:   make([]bool, len(ds.Parts)+1),
		specialWord: make([]bool, len(commentWords)),
	}
	for _, rf := range []byte(returnFlags) {
		for _, ls := range []byte(lineStatuses) {
			k.flagKeys = append(k.flagKeys, string([]byte{rf, '|', ls}))
		}
	}
	for y := range k.years {
		k.years[y] = fmt.Sprintf("%d", firstYear+y)
	}
	for n := range k.nationYears {
		name := ds.Nations[n].Name
		k.nationYears[n] = make([]string, nYears)
		for y := range nYears {
			k.nationYears[n][y] = fmt.Sprintf("%s|%d", name, firstYear+y)
		}
		switch name {
		case "FRANCE":
			k.france = int32(n)
		case "GERMANY":
			k.germany = int32(n)
		}
	}
	k.franceGermany = make([]string, nYears)
	k.germanyFrance = make([]string, nYears)
	for y := range nYears {
		k.franceGermany[y] = fmt.Sprintf("FRANCE|GERMANY|%d", firstYear+y)
		k.germanyFrance[y] = fmt.Sprintf("GERMANY|FRANCE|%d", firstYear+y)
	}
	for i := range ds.Parts {
		k.greenPart[i+1] = strings.Contains(ds.Parts[i].Name, "green")
	}
	// "special" has no space, so it is in a two-word comment exactly when
	// it is in one of the words.
	for w, word := range commentWords {
		k.specialWord[w] = strings.Contains(word, "special")
	}
	return k
}

// flags returns Q1's "returnflag|linestatus" group key, from the table
// for the generator's values.
func (k *rowKeys) flags(rf, ls byte) string {
	i, j := strings.IndexByte(returnFlags, rf), strings.IndexByte(lineStatuses, ls)
	if i < 0 || j < 0 {
		return string([]byte{rf, '|', ls})
	}
	return k.flagKeys[i*len(lineStatuses)+j]
}
