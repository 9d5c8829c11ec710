// Command rsshell is a small interactive shell over a RodentStore database:
// create tables with declarative layouts, load CSV data, inspect layouts,
// run scans and cost estimates.
//
// Usage:
//
//	rsshell mydb.rdnt
//
// Commands (also shown by `help`):
//
//	create <table> (<field>:<type>, ...) layout <expr>
//	load <table> <file.csv>
//	insert <table> <csv values>
//	scan <table> [fields f1,f2] [where <pred>] [order <keys>] [limit n]
//	cost <table> [fields ...] [where ...]
//	layout <table> [<new expr> [lazy]]
//	advise <table> fields <f1,f2> [where <pred>]
//	orders <table> | tables | schema <table> | stats | reorg <table>
//	check | quit
package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rodentstore"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rsshell <db file>")
		os.Exit(1)
	}
	path := os.Args[1]
	var db *rodentstore.DB
	var err error
	if _, statErr := os.Stat(path); statErr == nil {
		db, err = rodentstore.Open(path)
	} else {
		db, err = rodentstore.Create(path, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsshell:", err)
		os.Exit(1)
	}
	defer db.Close()

	fmt.Printf("RodentStore shell — %s (page size %d B). Type help.\n", path, db.PageSize())
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("rodent> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := execute(db, line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func execute(db *rodentstore.DB, line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Println(`commands:
  create <table> (<field>:<type>, ...) layout <expr>
  load <table> <file.csv>              bulk-load CSV (header optional)
  insert <table> v1,v2,...             insert one row
  scan <table> [fields a,b] [where <pred>] [order <keys>] [limit n]
  count <table> [where <pred>]         row count via the aggregate path
  summary <table> <agg>[,<agg>...] [by <cols>] [where <pred>]
                                       e.g. summary T sum(qty*price),avg(lat) by id
  cost <table> [fields a,b] [where <pred>]   estimate without running
  layout <table>                       show layout
  layout <table> <expr> [lazy]         alter layout (eager by default)
  advise <table> fields a,b [where <pred>]   run the design optimizer
  orders <table>                       efficient orders (order_list)
  check                                integrity walk (header, blocks, extents, wal)
  schema <table> | tables | stats | reorg <table> | quit`)
		return nil
	case "tables":
		for _, t := range db.Tables() {
			n, _ := db.RowCount(t)
			l, _ := db.LayoutOf(t)
			fmt.Printf("  %s (%d rows) layout %s\n", t, n, l)
		}
		return nil
	case "create":
		return cmdCreate(db, rest)
	case "load":
		return cmdLoad(db, rest)
	case "insert":
		return cmdInsert(db, rest)
	case "scan":
		return cmdScan(db, rest)
	case "count":
		return cmdCount(db, rest)
	case "summary":
		return cmdSummary(db, rest)
	case "cost":
		table, q, err := parseQuery(rest)
		if err != nil {
			return err
		}
		est, err := db.ScanCost(table, q)
		if err != nil {
			return err
		}
		fmt.Printf("estimated: %.2f ms (%d pages, %d seeks, ~%d rows)\n", est.Ms, est.Pages, est.Seeks, est.Rows)
		return nil
	case "layout":
		parts := strings.Fields(rest)
		if len(parts) == 1 {
			l, err := db.LayoutOf(parts[0])
			if err != nil {
				return err
			}
			fmt.Println(l)
			return nil
		}
		if len(parts) >= 2 {
			table := parts[0]
			lazy := parts[len(parts)-1] == "lazy"
			expr := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(rest, table), "lazy"))
			return db.AlterLayout(table, expr, !lazy)
		}
		return fmt.Errorf("usage: layout <table> [<expr> [lazy]]")
	case "advise":
		return cmdAdvise(db, rest)
	case "orders":
		orders, err := db.OrderList(rest)
		if err != nil {
			return err
		}
		if len(orders) == 0 {
			fmt.Println("(no efficient orders)")
		}
		for _, o := range orders {
			fmt.Println(" ", o)
		}
		return nil
	case "schema":
		fields, err := db.SchemaOf(rest)
		if err != nil {
			return err
		}
		for _, f := range fields {
			fmt.Printf("  %s: %s\n", f.Name, f.Type)
		}
		return nil
	case "stats":
		s := db.IOStats()
		fmt.Printf("page reads %d, writes %d, seeks %d\n", s.PageReads, s.PageWrites, s.Seeks)
		return nil
	case "reorg":
		return db.Reorganize(rest)
	case "check":
		rep, err := db.CheckIntegrity()
		if rep != nil {
			fmt.Printf("checked %d tables, %d segments, %d blocks; %d pages owned, %d free\n",
				rep.Tables, rep.Segments, rep.Blocks, rep.OwnedPages, rep.FreePages)
			for _, issue := range rep.Issues {
				fmt.Println("  CORRUPT:", issue.String())
			}
			if rep.OK() && err == nil {
				fmt.Println("ok")
			}
		}
		return err
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func cmdCreate(db *rodentstore.DB, rest string) error {
	// The layout expression itself contains parentheses, so locate the
	// schema's closing paren within the text before the layout keyword.
	layoutIdx := strings.LastIndex(rest, "layout ")
	open := strings.Index(rest, "(")
	closeIdx := -1
	if layoutIdx > 0 {
		closeIdx = strings.LastIndex(rest[:layoutIdx], ")")
	}
	if open < 0 || closeIdx < open {
		return fmt.Errorf("usage: create <table> (f:type, ...) layout <expr>")
	}
	name := strings.TrimSpace(rest[:open])
	var fields []rodentstore.Field
	for _, part := range strings.Split(rest[open+1:closeIdx], ",") {
		fname, ftype, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return fmt.Errorf("bad field %q (want name:type)", part)
		}
		var kind rodentstore.Kind
		switch strings.TrimSpace(ftype) {
		case "int":
			kind = rodentstore.Int
		case "float":
			kind = rodentstore.Float
		case "string":
			kind = rodentstore.String
		case "bool":
			kind = rodentstore.Bool
		case "bytes":
			kind = rodentstore.Bytes
		default:
			return fmt.Errorf("unknown type %q", ftype)
		}
		fields = append(fields, rodentstore.Field{Name: strings.TrimSpace(fname), Type: kind})
	}
	layout := strings.TrimSpace(rest[layoutIdx+len("layout "):])
	if err := db.CreateTable(name, fields, layout); err != nil {
		return err
	}
	fmt.Printf("created %s with layout %s\n", name, layout)
	return nil
}

func cmdLoad(db *rodentstore.DB, rest string) error {
	table, file, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("usage: load <table> <file.csv>")
	}
	fields, err := db.SchemaOf(table)
	if err != nil {
		return err
	}
	f, err := os.Open(strings.TrimSpace(file))
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	var rows []rodentstore.Row
	first := true
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if first {
			first = false
			// Skip a header row if it matches field names.
			if len(rec) > 0 && rec[0] == fields[0].Name {
				continue
			}
		}
		row, err := parseRow(fields, rec)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	if err := db.Load(table, rows); err != nil {
		return err
	}
	fmt.Printf("loaded %d rows into %s\n", len(rows), table)
	return nil
}

func cmdInsert(db *rodentstore.DB, rest string) error {
	table, csvVals, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("usage: insert <table> v1,v2,...")
	}
	fields, err := db.SchemaOf(table)
	if err != nil {
		return err
	}
	row, err := parseRow(fields, strings.Split(csvVals, ","))
	if err != nil {
		return err
	}
	return db.Insert(table, []rodentstore.Row{row})
}

func parseRow(fields []rodentstore.Field, rec []string) (rodentstore.Row, error) {
	if len(rec) != len(fields) {
		return nil, fmt.Errorf("row has %d values, schema has %d fields", len(rec), len(fields))
	}
	row := make(rodentstore.Row, len(rec))
	for i, s := range rec {
		s = strings.TrimSpace(s)
		switch fields[i].Type {
		case rodentstore.Int:
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, err
			}
			row[i] = rodentstore.IntValue(v)
		case rodentstore.Float:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, err
			}
			row[i] = rodentstore.FloatValue(v)
		case rodentstore.Bool:
			v, err := strconv.ParseBool(s)
			if err != nil {
				return nil, err
			}
			row[i] = rodentstore.BoolValue(v)
		case rodentstore.Bytes:
			row[i] = rodentstore.BytesValue([]byte(s))
		default:
			row[i] = rodentstore.StringValue(s)
		}
	}
	return row, nil
}

// parseQuery parses "table [fields a,b] [where ...] [order ...] [limit n]".
func parseQuery(rest string) (string, rodentstore.Query, error) {
	var q rodentstore.Query
	table, rest, _ := strings.Cut(rest, " ")
	if table == "" {
		return "", q, fmt.Errorf("missing table name")
	}
	for rest != "" {
		rest = strings.TrimSpace(rest)
		var kw string
		kw, rest, _ = strings.Cut(rest, " ")
		next := func() string {
			// take text up to the next top-level keyword
			low := strings.ToLower(rest)
			end := len(rest)
			for _, k := range []string{" fields ", " where ", " order ", " limit "} {
				if i := strings.Index(low, k); i >= 0 && i < end {
					end = i
				}
			}
			out := strings.TrimSpace(rest[:end])
			rest = strings.TrimSpace(rest[end:])
			return out
		}
		switch strings.ToLower(kw) {
		case "fields":
			for _, f := range strings.Split(next(), ",") {
				q.Fields = append(q.Fields, strings.TrimSpace(f))
			}
		case "where":
			q.Where = next()
		case "order":
			q.OrderBy = next()
		default:
			return "", q, fmt.Errorf("unexpected %q", kw)
		}
	}
	return table, q, nil
}

func cmdScan(db *rodentstore.DB, rest string) error {
	// Extract limit before the shared parser (scan-only feature).
	limit := -1
	if i := strings.LastIndex(strings.ToLower(rest), " limit "); i >= 0 {
		n, err := strconv.Atoi(strings.TrimSpace(rest[i+7:]))
		if err != nil {
			return fmt.Errorf("bad limit: %w", err)
		}
		limit = n
		rest = rest[:i]
	}
	table, q, err := parseQuery(rest)
	if err != nil {
		return err
	}
	cur, err := db.Scan(table, q)
	if err != nil {
		return err
	}
	defer cur.Close()
	fields := cur.Schema()
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	fmt.Println(strings.Join(names, "\t"))
	count := 0
	for limit < 0 || count < limit {
		row, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			fmt.Printf("(%d rows)\n", count)
			return nil
		}
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
		count++
	}
	// Past the limit we only need the row count: drain batch-at-a-time
	// instead of boxing every remaining row through Next.
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		count += b.Len()
	}
	fmt.Printf("(%d rows)\n", count)
	return nil
}

// cmdCount runs `count <table> [where <pred>]` through the aggregate path:
// no row is materialized, and a bare count reads only block metadata.
func cmdCount(db *rodentstore.DB, rest string) error {
	table, q, err := parseQuery(rest)
	if err != nil {
		return err
	}
	if len(q.Fields) > 0 || q.OrderBy != "" {
		return fmt.Errorf("usage: count <table> [where <pred>]")
	}
	q.Aggregate = &rodentstore.AggregateSpec{Aggs: []string{"count"}}
	cur, err := db.Scan(table, q)
	if err != nil {
		return err
	}
	defer cur.Close()
	rows, err := cur.All()
	if err != nil {
		return err
	}
	fmt.Printf("%d\n", rows[0][0].Int())
	return nil
}

// cmdSummary runs `summary <table> <agg>[,<agg>...] [by <cols>] [where
// <pred>]`, e.g. `summary trips sum(qty*price),avg(lat) by id where lat > 0`.
func cmdSummary(db *rodentstore.DB, rest string) error {
	table, rest, _ := strings.Cut(strings.TrimSpace(rest), " ")
	rest = strings.TrimSpace(rest)
	if table == "" || rest == "" {
		return fmt.Errorf("usage: summary <table> <agg>[,<agg>...] [by <cols>] [where <pred>]")
	}
	var q rodentstore.Query
	low := strings.ToLower(rest)
	if i := strings.Index(low, " where "); i >= 0 {
		q.Where = strings.TrimSpace(rest[i+7:])
		rest = strings.TrimSpace(rest[:i])
		low = strings.ToLower(rest)
	}
	spec := &rodentstore.AggregateSpec{}
	if i := strings.Index(low, " by "); i >= 0 {
		for _, c := range strings.Split(rest[i+4:], ",") {
			spec.GroupBy = append(spec.GroupBy, strings.TrimSpace(c))
		}
		rest = strings.TrimSpace(rest[:i])
	}
	for _, a := range strings.Split(rest, ",") {
		spec.Aggs = append(spec.Aggs, strings.TrimSpace(a))
	}
	q.Aggregate = spec
	cur, err := db.Scan(table, q)
	if err != nil {
		return err
	}
	defer cur.Close()
	fields := cur.Schema()
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	fmt.Println(strings.Join(names, "\t"))
	rows, err := cur.All()
	if err != nil {
		return err
	}
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	fmt.Printf("(%d groups)\n", len(rows))
	return nil
}

func cmdAdvise(db *rodentstore.DB, rest string) error {
	table, q, err := parseQuery(rest)
	if err != nil {
		return err
	}
	advice, err := db.Advise(table, []rodentstore.WorkloadQuery{{Fields: q.Fields, Where: q.Where, Weight: 1}})
	if err != nil {
		return err
	}
	fmt.Printf("recommended: %s (est %.1f ms)\n", advice.Layout, advice.EstimatedMs)
	show := advice.Alternatives
	if len(show) > 5 {
		show = show[:5]
	}
	fmt.Println("top candidates:")
	for _, c := range show {
		fmt.Printf("  %8.1f ms  %s\n", c.EstimatedMs, c.Layout)
	}
	fmt.Println("apply with: layout", table, advice.Layout)
	return nil
}
