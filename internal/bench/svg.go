package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"abndp/internal/config"
	"abndp/internal/plot"
)

// SVG figure generation: the experiments with a chart can also be rendered
// as standalone SVGs (abndpbench -svg DIR). Each chart plots its
// experiment's tables, so a chart shows the numbers the text prints. Two
// entity families keep fixed hue assignments across every figure they
// appear in: the Table 2 designs (comparison figures) and the workloads
// (sweep figures). The text tables are the table view backing the
// palette's low-contrast slots.

// chart declares one experiment's SVG: its file name (without ".svg"), the
// plot form (plot.Bar, plot.StackedBar or plot.Line), the title, subtitle,
// y-label and width in head, and data, which reads the categories and the
// series out of the experiment's tables.
type chart struct {
	file string
	draw func(*plot.Chart) (string, error)
	head plot.Chart
	data func([]*table) ([]string, []plot.Series)
}

// designOrder fixes design -> palette slot (B blue, Sm aqua, Sl yellow,
// Sh green, C violet, O red, H magenta) in every figure.
var designOrder = []config.Design{
	config.DesignB, config.DesignSm, config.DesignSl,
	config.DesignSh, config.DesignC, config.DesignO, config.DesignH,
}

// RenderSVGs writes the charts of the named experiments into dir (of
// every experiment when none is named; one without a chart writes
// nothing), returning the file paths written. It first simulates the runs
// those charts need that are not cached yet on the worker pool, so
// rendering after the same experiments' tables simulates nothing.
func (r *Runner) RenderSVGs(dir string, names ...string) ([]string, error) {
	selected := experiments
	if len(names) > 0 {
		selected = nil
		for _, name := range names {
			e, err := lookup(name)
			if err != nil {
				return nil, err
			}
			selected = append(selected, e)
		}
	}
	var charted []*experiment
	for _, e := range selected {
		if e.chart != nil {
			charted = append(charted, e)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r.planAndExecute(charted...)
	var written []string
	for _, e := range charted {
		c := e.chart.head
		c.Categories, c.Series = e.chart.data(e.build(r))
		svg, err := e.chart.draw(&c)
		if err != nil {
			return written, fmt.Errorf("bench: rendering %s: %w", e.chart.file, err)
		}
		path := filepath.Join(dir, e.chart.file+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return written, err
		}
		written = append(written, path)
	}
	return written, nil
}

// columnSeries reads a chart off a table: the first column's cells are the
// categories, and each named numeric column (every one, when none is
// named) is a series.
func columnSeries(t *table, names ...string) ([]string, []plot.Series) {
	if len(names) == 0 {
		for _, c := range t.cols {
			if c.verb != "" {
				names = append(names, c.name)
			}
		}
	}
	cats := make([]string, len(t.rows))
	for i, row := range t.rows {
		cats[i] = t.cols[0].text(row[0])
	}
	series := make([]plot.Series, len(names))
	for i, name := range names {
		j := t.col(name)
		series[i] = plot.Series{Name: name, Values: make([]float64, len(t.rows))}
		for k, row := range t.rows {
			series[i].Values[k] = row[j].num
		}
	}
	return cats, series
}

// rowSeries reads a chart off a wide table: the numeric columns' names are
// the categories, and each row is a series named by its first cell.
func rowSeries(t *table) ([]string, []plot.Series) {
	var cats []string
	var cols []int
	for j, c := range t.cols {
		if c.verb != "" {
			cats = append(cats, c.name)
			cols = append(cols, j)
		}
	}
	series := make([]plot.Series, len(t.rows))
	for i, row := range t.rows {
		series[i] = plot.Series{Name: t.cols[0].text(row[0]), Values: make([]float64, len(cols))}
		for k, j := range cols {
			series[i].Values[k] = row[j].num
		}
	}
	return cats, series
}

// pivot reads a chart off a long table: the distinct cells of column cat
// are the categories and those of column ser the series, both in order of
// first appearance, and column val gives each pair's value.
func pivot(t *table, cat, ser, val string) ([]string, []plot.Series) {
	ci, si, vi := t.col(cat), t.col(ser), t.col(val)
	catAt, serAt := map[string]int{}, map[string]int{}
	var cats []string
	var series []plot.Series
	for _, row := range t.rows {
		c, s := t.cols[ci].text(row[ci]), t.cols[si].text(row[si])
		if _, ok := catAt[c]; !ok {
			catAt[c] = len(cats)
			cats = append(cats, c)
		}
		if _, ok := serAt[s]; !ok {
			serAt[s] = len(series)
			series = append(series, plot.Series{Name: s})
		}
	}
	for i := range series {
		series[i].Values = make([]float64, len(cats))
	}
	for _, row := range t.rows {
		s := serAt[t.cols[si].text(row[si])]
		series[s].Values[catAt[t.cols[ci].text(row[ci])]] = row[vi].num
	}
	return cats, series
}

// designMeans reads Fig. 7's chart off its app x design table: the designs
// are the categories, and each named component is a series of its mean
// over the apps, summed in app order and then divided.
func designMeans(t *table, comps ...string) ([]string, []plot.Series) {
	var designs []string
	series := make([]plot.Series, len(comps))
	for i, comp := range comps {
		var perApp []plot.Series
		designs, perApp = pivot(t, "design", "app", comp)
		means := make([]float64, len(designs))
		for _, s := range perApp {
			for k, v := range s.Values {
				means[k] += v
			}
		}
		for k := range means {
			means[k] /= float64(len(perApp))
		}
		series[i] = plot.Series{Name: comp, Values: means}
	}
	return designs, series
}
