// Command experiments regenerates the paper's tables and figures from the
// simulated engines.
//
// Examples:
//
//	experiments -artifact all                 # every artifact, text format
//	experiments -artifact table4,table5
//	experiments -artifact fig1 -format svg -out fig1.svg
//	experiments -artifact table9 -format csv
//	experiments -write-md EXPERIMENTS.md      # full paper-vs-measured doc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rooftune/internal/experiments"
	"rooftune/internal/report"
)

func main() {
	var (
		artifact = flag.String("artifact", "all", "comma-separated artifacts: table1..table11, fig1..fig6, intel, constraint, table6ext, secondchance, distribution, all")
		format   = flag.String("format", "text", "table format: text, markdown, csv; figures: text, tsv, svg (fig1)")
		out      = flag.String("out", "", "output file (default stdout)")
		seed     = flag.Uint64("seed", experiments.DefaultSeed, "simulation noise seed (nonzero)")
		writeMD  = flag.String("write-md", "", "write the full EXPERIMENTS.md to this path and exit")
		jsonOut  = flag.String("json", "", "run the full campaign and write machine-readable JSON to this path")
	)
	flag.Parse()
	if *seed == 0 {
		// The tables run through rooftune sessions, where seed 0 selects
		// the default seed: the output would name seed 0 above numbers
		// measured under another.
		fail(fmt.Errorf("-seed 0 is not a seed: rooftune.WithSeed(0) selects the default %d", experiments.DefaultSeed))
	}

	r := experiments.New()
	r.Seed = *seed

	if *writeMD != "" {
		md, err := r.GenerateMarkdown()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*writeMD, []byte(md), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *writeMD, len(md))
		return
	}
	if *jsonOut != "" {
		campaign, err := r.RunCampaign()
		if err != nil {
			fail(err)
		}
		blob, err := campaign.MarshalJSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *jsonOut, len(blob))
		return
	}

	want := map[string]bool{}
	for _, a := range strings.Split(*artifact, ",") {
		want[strings.TrimSpace(a)] = true
	}
	all := want["all"]
	var sb strings.Builder
	emitTable := func(t *report.Table) {
		switch *format {
		case "markdown":
			sb.WriteString(t.Markdown() + "\n")
		case "csv":
			sb.WriteString(t.CSV() + "\n")
		default:
			sb.WriteString(t.Text() + "\n")
		}
	}
	emitFigure := func(f *report.Figure) {
		if *format == "tsv" {
			sb.WriteString(f.TSV() + "\n")
		} else {
			sb.WriteString(f.BarChartASCII(48) + "\n")
		}
	}

	if all || want["table1"] {
		emitTable(r.Table1())
	}
	if all || want["table2"] {
		emitTable(r.Table2())
	}
	if all || want["table3"] {
		emitTable(r.Table3())
	}

	needT45 := all || want["table4"] || want["table5"] || want["fig1"] || want["fig3"] || want["intel"]
	var dgemmRuns []*experiments.DGEMMRun
	if needT45 {
		var err error
		dgemmRuns, err = r.Table4Data()
		if err != nil {
			fail(err)
		}
	}
	if all || want["table4"] {
		emitTable(experiments.Table4(dgemmRuns))
	}
	if all || want["table5"] {
		emitTable(experiments.Table5(dgemmRuns))
	}

	needT6 := all || want["table6"] || want["fig1"] || want["fig4"]
	var triadRuns []*experiments.TriadRun
	if needT6 {
		var err error
		triadRuns, err = r.Table6Data()
		if err != nil {
			fail(err)
		}
	}
	if all || want["table6"] {
		emitTable(experiments.Table6(triadRuns))
	}
	if all || want["table7"] {
		emitTable(r.Table7())
	}

	// Paper order: Tables VIII-XI and the Fig. 5 series follow this slice.
	optNeeded := []struct{ key, sys string }{{"table8", "2650v4"}, {"table9", "2695v4"},
		{"table10", "Gold 6132"}, {"table11", "Gold 6148"}}
	var optTables []*experiments.OptTable
	for _, o := range optNeeded {
		if all || want[o.key] || want["fig5"] {
			tbl, err := r.OptimizationTable(o.sys)
			if err != nil {
				fail(err)
			}
			optTables = append(optTables, tbl)
			if all || want[o.key] {
				emitTable(tbl.Render(experiments.OptTableNumbers[o.sys]))
			}
		}
	}

	if all || want["fig1"] {
		f, err := experiments.Fig1(dgemmRuns[3], triadRuns[3])
		if err != nil {
			fail(err)
		}
		if *format == "svg" {
			sb.WriteString(f.RenderSVG(800, 560))
		} else {
			sb.WriteString(f.RenderASCII(76, 20) + "\n")
		}
	}
	if all || want["fig2"] {
		sb.WriteString(experiments.Fig2() + "\n\n")
	}
	if all || want["fig3"] {
		emitFigure(experiments.Fig3(dgemmRuns))
	}
	if all || want["fig4"] {
		emitFigure(experiments.Fig4(triadRuns))
	}
	if all || want["fig5"] {
		emitFigure(experiments.Fig5(optTables))
	}
	if all || want["fig6"] {
		pts, err := r.Fig6Data("2650v4")
		if err != nil {
			fail(err)
		}
		emitFigure(experiments.Fig6(pts))
	}
	if all || want["intel"] {
		ic, err := r.RunIntelComparison(dgemmRuns[2])
		if err != nil {
			fail(err)
		}
		emitTable(ic.Render())
	}
	if all || want["constraint"] {
		rows, err := r.ConstraintStudy()
		if err != nil {
			fail(err)
		}
		emitTable(experiments.RenderConstraintStudy(rows))
	}
	if all || want["table6ext"] {
		if triadRuns == nil {
			var err error
			triadRuns, err = r.Table6Data()
			if err != nil {
				fail(err)
			}
		}
		emitTable(experiments.Table6Extended(triadRuns))
	}
	if all || want["secondchance"] {
		row, err := r.SecondChanceStudy()
		if err != nil {
			fail(err)
		}
		emitTable(row.Render())
	}
	if all || want["distribution"] {
		rows, err := r.DistributionStudy()
		if err != nil {
			fail(err)
		}
		emitTable(experiments.RenderDistributionStudy(rows))
	}

	if sb.Len() == 0 {
		fail(fmt.Errorf("no artifact matched %q", *artifact))
	}
	if *out == "" {
		fmt.Print(sb.String())
		return
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, sb.Len())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
