// `firesim figures` regenerates the paper's tables and figures through
// internal/experiments, one rendered text table or series per experiment.
//
//	firesim figures                 # every experiment at quick scale
//	firesim figures -full           # full (paper-sized) parameters
//	firesim figures -exp fig5,fig7  # a subset
//	firesim figures -list           # list experiment names
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func cmdFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	exp := fs.String("exp", "all", "comma-separated experiment names, or 'all'")
	full := fs.Bool("full", false, "run at full (paper-sized) scale")
	list := fs.Bool("list", false, "list experiment names and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return nil
	}

	names := experiments.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	sc := experiments.Scale{Quick: !*full}

	failures := 0
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		res, err := experiments.Run(name, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "!! %s: %v\n", name, err)
			failures++
			continue
		}
		fmt.Printf("== %s  [%s, %.2fs]\n\n%s\n", res.Title(), name, time.Since(start).Seconds(), res.Render())
	}
	if failures > 0 {
		return fmt.Errorf("figures: %d of %d experiments failed", failures, len(names))
	}
	return nil
}
