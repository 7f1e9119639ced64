package viz

// The QoR dashboard: renders a ledger snapshot — every recorded run,
// grouped by (kernel, arch, mapper) — as a self-contained HTML page.
// Served live by rewire-serve at /qor.html.

import (
	"fmt"
	"html"
	"sort"
	"strings"

	"rewire/internal/ledger"
)

// RenderQoRHTML renders the QoR dashboard as a self-contained HTML page:
// a per-group quality table with II-over-time sparklines, a
// compile-time trend table, and the pairwise mapper win-rate matrix.
// Safe on an empty snapshot.
func RenderQoRHTML(entries []ledger.Entry) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	b.WriteString("<title>rewire QoR dashboard</title>\n<style>\n")
	b.WriteString(`body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}
h1{font-size:1.3em} h2{font-size:1.1em;margin-top:1.5em}
table{border-collapse:collapse} td,th{border:1px solid #ccc;padding:.3em .6em;text-align:left}
.spark{font-family:monospace} .num{text-align:right}
`)
	b.WriteString("</style></head><body>\n")
	esc := html.EscapeString
	groups := ledger.Aggregate(entries)
	fmt.Fprintf(&b, "<h1>rewire QoR dashboard</h1>\n<p>%d runs in %d groups</p>\n",
		len(entries), len(groups))
	if len(groups) == 0 {
		b.WriteString("<p>ledger is empty</p></body></html>\n")
		return b.String()
	}

	b.WriteString("<h2>mapping quality</h2>\n<table><tr><th>combo</th><th>mapper</th>" +
		"<th>runs</th><th>success</th><th>best II</th><th>MII</th><th>winner</th><th>II over time</th></tr>\n")
	for _, g := range groups {
		best := "-"
		if g.BestII > 0 {
			best = fmt.Sprintf("%d", g.BestII)
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td class=\"num\">%d</td>"+
			"<td class=\"num\">%.0f%%</td><td class=\"num\">%s</td><td class=\"num\">%d</td>"+
			"<td>%s</td><td class=\"spark\">%s</td></tr>\n",
			esc(g.Kernel+"@"+g.Arch), esc(g.Mapper), g.Runs, 100*g.SuccessRate(),
			best, g.MII, esc(winnerCell(g)), Sparkline(g.IIs))
	}
	b.WriteString("</table>\n")

	b.WriteString("<h2>compile-time trend (non-cached runs)</h2>\n<table><tr><th>combo</th>" +
		"<th>mapper</th><th>runs</th><th>median ms</th><th>last ms</th><th>trend</th></tr>\n")
	for _, g := range groups {
		if len(g.CompileMS) == 0 {
			continue
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td class=\"num\">%d</td>"+
			"<td class=\"num\">%.1f</td><td class=\"num\">%.1f</td><td class=\"spark\">%s</td></tr>\n",
			esc(g.Kernel+"@"+g.Arch), esc(g.Mapper), len(g.CompileMS),
			ledger.Median(g.CompileMS), g.CompileMS[len(g.CompileMS)-1],
			Sparkline(msSeries(g.CompileMS)))
	}
	b.WriteString("</table>\n")

	mappers, wins, comp := winMatrix(groups)
	if len(mappers) > 1 {
		b.WriteString("<h2>mapper win rate (row beats column on best II per combo)</h2>\n<table><tr><th></th>")
		for _, m := range mappers {
			fmt.Fprintf(&b, "<th>%s</th>", esc(m))
		}
		b.WriteString("</tr>\n")
		for i, m := range mappers {
			fmt.Fprintf(&b, "<tr><th>%s</th>", esc(m))
			for j := range mappers {
				fmt.Fprintf(&b, "<td class=\"num\">%s</td>", winCell(i, j, wins, comp))
			}
			b.WriteString("</tr>\n")
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// winnerCell renders a group's portfolio win-rate: the backend whose
// lane won most often and its share of wins ("rewire 80%"), "-" for
// single-mapper groups whose entries carry no winner.
func winnerCell(g ledger.Group) string {
	backend, share := g.TopWinner()
	if backend == "" {
		return "-"
	}
	return fmt.Sprintf("%s %.0f%%", backend, 100*share)
}

// msSeries quantises a compile-time series to whole milliseconds for
// the sparkline (which takes ints).
func msSeries(ms []float64) []int {
	out := make([]int, len(ms))
	for i, v := range ms {
		out[i] = int(v + 0.5)
	}
	return out
}

// winMatrix scores every mapper pair on the combos both attempted: a
// mapper wins a combo by succeeding where the other failed, or by a
// strictly lower best II. wins[i][j] counts row i's wins over column j
// out of comp[i][j] comparable combos (ties favour neither side).
func winMatrix(groups []ledger.Group) (mappers []string, wins, comp [][]int) {
	type comboBest struct {
		ok bool
		ii int
	}
	best := map[string]map[string]comboBest{} // combo -> mapper -> best
	seen := map[string]bool{}
	for _, g := range groups {
		combo := g.Kernel + "@" + g.Arch
		if best[combo] == nil {
			best[combo] = map[string]comboBest{}
		}
		best[combo][g.Mapper] = comboBest{ok: g.BestII > 0, ii: g.BestII}
		if !seen[g.Mapper] {
			seen[g.Mapper] = true
			mappers = append(mappers, g.Mapper)
		}
	}
	sort.Strings(mappers)
	wins = make([][]int, len(mappers))
	comp = make([][]int, len(mappers))
	for i := range mappers {
		wins[i] = make([]int, len(mappers))
		comp[i] = make([]int, len(mappers))
	}
	idx := map[string]int{}
	for i, m := range mappers {
		idx[m] = i
	}
	for _, byMapper := range best {
		for ma, a := range byMapper {
			for mb, bb := range byMapper {
				if ma == mb {
					continue
				}
				i, j := idx[ma], idx[mb]
				comp[i][j]++
				if (a.ok && !bb.ok) || (a.ok && bb.ok && a.ii < bb.ii) {
					wins[i][j]++
				}
			}
		}
	}
	return mappers, wins, comp
}

// winCell renders one matrix cell: "w/n" wins out of comparable combos,
// "-" on the diagonal or with nothing to compare.
func winCell(i, j int, wins, comp [][]int) string {
	if i == j || comp[i][j] == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", wins[i][j], comp[i][j])
}
