// Command dvfstsdb inspects, queries, and compacts the embedded
// telemetry store (the -tsdb-dir directory a dvfsd daemon writes)
// offline — no daemon required.
//
// Usage:
//
//	dvfstsdb -dir DIR                          # inspect: stats + series
//	dvfstsdb -dir DIR -query METRIC [-labels a=b,c=d]
//	         [-from T] [-to T] [-step 30s] [-agg mean] [-json]
//	dvfstsdb -dir DIR -compact [-keep 6h]      # rewrite segments
//
// Times accept RFC3339, unix seconds, or offsets relative to the
// newest stored sample ("-15m"). -compact rewrites every segment from
// the recovered chunks — reclaiming torn tails, dropped series, and
// (with -keep) expired history — then atomically swaps the new
// segments in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/tsdb"
)

func main() {
	dir := flag.String("dir", "", "telemetry store directory (a dvfsd -tsdb-dir)")
	query := flag.String("query", "", "metric to query (empty = inspect the store)")
	labels := flag.String("labels", "", "label selectors for -query (name=value,name2=value2)")
	from := flag.String("from", "", "range start: RFC3339, unix seconds, or relative to the newest sample (-15m); default -15m")
	to := flag.String("to", "", "range end; default the newest stored sample")
	step := flag.Duration("step", 0, "rollup bucket width for -query (0 = raw samples)")
	agg := flag.String("agg", "", "rollup: mean, min, max, count, rate (default mean)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables")
	compact := flag.Bool("compact", false, "rewrite the store's segments in place")
	keep := flag.Duration("keep", 0, "with -compact, drop samples older than this before the newest (0 = keep all)")
	flag.Parse()

	err := func() error {
		switch {
		case *dir == "":
			return fmt.Errorf("missing -dir")
		case *compact:
			return runCompact(*dir, *keep)
		case *query != "":
			return runQuery(*dir, *query, *labels, *from, *to, *step, *agg, *jsonOut)
		default:
			return runInspect(*dir, *jsonOut)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfstsdb:", err)
		os.Exit(1)
	}
}

// openReadOnly opens a store over dir without disturbing it: replay
// recovers committed chunks (and truncates torn tails, exactly as the
// daemon would on restart).
func openReadOnly(dir string) (*tsdb.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return tsdb.Open(tsdb.Options{Dir: dir, Retention: -1})
}

// fullRange spans every representable sample (half the int64 range so
// step alignment can't overflow).
const (
	minTime = math.MinInt64 / 4
	maxTime = math.MaxInt64 / 4
)

// newestSample returns the newest timestamp across every series (0 if
// the store is empty) — the CLI's anchor for relative times.
func newestSample(s *tsdb.Store) int64 {
	var newest int64
	for _, meta := range s.SeriesList() {
		res, err := s.Query(tsdb.Query{Metric: meta.Metric, Labels: meta.Labels, FromMs: minTime, ToMs: maxTime})
		if err != nil {
			continue
		}
		for _, sr := range res {
			if n := len(sr.Points); n > 0 && sr.Points[n-1].T > newest {
				newest = sr.Points[n-1].T
			}
		}
	}
	return newest
}

// parseTime resolves a -from/-to value against the store's newest
// sample: RFC3339, unix seconds, or a duration offset ("-15m").
func parseTime(s string, anchor time.Time) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return anchor.Add(d), nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		sec, frac := math.Modf(f)
		return time.Unix(int64(sec), int64(frac*1e9)), nil
	}
	return time.Time{}, fmt.Errorf("invalid time %q (RFC3339, unix seconds, or relative like -15m)", s)
}

func runInspect(dir string, jsonOut bool) error {
	s, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	st := s.Stats()
	series := s.SeriesList()
	if jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			Stats  tsdb.Stats        `json:"stats"`
			Series []tsdb.SeriesMeta `json:"series"`
		}{st, series})
	}
	fmt.Printf("store      %s\n", dir)
	fmt.Printf("series     %d\n", st.Series)
	fmt.Printf("samples    %d\n", st.Samples)
	fmt.Printf("chunks     %d sealed\n", st.SealedChunks)
	fmt.Printf("bytes      %d in memory (%.2f B/sample)\n", st.Bytes, st.BytesPerSamp)
	fmt.Printf("disk       %d segments, %d bytes\n", st.DiskSegments, st.DiskBytes)
	if newest := newestSample(s); newest != 0 {
		fmt.Printf("newest     %s\n", time.UnixMilli(newest).UTC().Format(time.RFC3339))
	}
	for _, m := range series {
		fmt.Println("  " + m.Key())
	}
	return nil
}

func runQuery(dir, metric, labelSel, fromS, toS string, step time.Duration, aggS string, jsonOut bool) error {
	s, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	defer s.Close()

	var lbls []tsdb.Label
	if labelSel != "" {
		for _, part := range strings.Split(labelSel, ",") {
			name, value, ok := strings.Cut(part, "=")
			if !ok || name == "" {
				return fmt.Errorf("invalid label selector %q (want name=value,name2=value2)", part)
			}
			lbls = append(lbls, tsdb.Label{Name: name, Value: value})
		}
	}
	agg, err := tsdb.ParseAgg(aggS)
	if err != nil {
		return err
	}
	anchor := time.UnixMilli(newestSample(s))
	toT, err := parseTime(toS, anchor)
	if err != nil {
		return fmt.Errorf("-to: %w", err)
	}
	if toT.IsZero() {
		toT = anchor
	}
	fromT, err := parseTime(fromS, anchor)
	if err != nil {
		return fmt.Errorf("-from: %w", err)
	}
	if fromT.IsZero() {
		fromT = toT.Add(-15 * time.Minute)
	}
	res, err := s.Query(tsdb.Query{
		Metric: metric, Labels: lbls,
		FromMs: fromT.UnixMilli(), ToMs: toT.UnixMilli(),
		StepMs: step.Milliseconds(), Agg: agg,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		if res == nil {
			res = []tsdb.SeriesResult{}
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	if len(res) == 0 {
		fmt.Println("no samples in range")
		return nil
	}
	for _, sr := range res {
		fmt.Println(sr.Meta.Key())
		for _, pt := range sr.Points {
			fmt.Printf("  %s  %g\n", time.UnixMilli(pt.T).UTC().Format(time.RFC3339), pt.V)
		}
	}
	return nil
}

// runCompact rewrites every segment from the recovered chunks into a
// sibling directory, then swaps the new segments in. Reclaims torn
// tails and, with keep > 0, history older than the newest sample minus
// keep.
func runCompact(dir string, keep time.Duration) error {
	src, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	before := src.Stats()

	cutoff := int64(minTime)
	if keep > 0 {
		if newest := newestSample(src); newest != 0 {
			cutoff = newest - keep.Milliseconds()
		}
	}
	tmp := dir + ".compact"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	dst, err := tsdb.Open(tsdb.Options{Dir: tmp, Retention: -1})
	if err != nil {
		src.Close()
		return err
	}
	copied := int64(0)
	for _, meta := range src.SeriesList() {
		res, err := src.Query(tsdb.Query{Metric: meta.Metric, Labels: meta.Labels, FromMs: cutoff, ToMs: maxTime})
		if err != nil {
			src.Close()
			dst.Close()
			return fmt.Errorf("reading %s: %w", meta.Key(), err)
		}
		for _, sr := range res {
			// Exact-label match only: Query treats labels as a subset
			// selector, so a superset series would be copied twice.
			if sr.Meta.Key() != meta.Key() {
				continue
			}
			out := dst.Series(meta.Metric, meta.Labels...)
			for _, pt := range sr.Points {
				if out.Append(pt.T, pt.V) {
					copied++
				}
			}
		}
	}
	src.Close()
	if err := dst.Close(); err != nil {
		return err
	}

	// Swap: the old segments leave, the rewritten ones move in. A crash
	// between the two loops loses no samples that were expired anyway —
	// the rewritten set still sits intact in tmp.
	old, err := filepath.Glob(filepath.Join(dir, "*.tsb"))
	if err != nil {
		return err
	}
	for _, p := range old {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	fresh, err := filepath.Glob(filepath.Join(tmp, "*.tsb"))
	if err != nil {
		return err
	}
	for _, p := range fresh {
		if err := os.Rename(p, filepath.Join(dir, filepath.Base(p))); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}

	after, err := openReadOnly(dir)
	if err != nil {
		return err
	}
	st := after.Stats()
	after.Close()
	fmt.Printf("compacted  %s\n", dir)
	fmt.Printf("samples    %d -> %d (%d copied)\n", before.Samples, st.Samples, copied)
	fmt.Printf("disk       %d -> %d bytes\n", before.DiskBytes, st.DiskBytes)
	return nil
}
