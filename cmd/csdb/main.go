// Command csdb is an interactive SQL shell for a vexdb database
// (with the ML UDF suite loaded). It reads semicolon-terminated
// statements from stdin or executes -c / -f input, against an
// in-memory database or a directory opened with -db. Every statement
// runs in one session, which starts at the -workers and -mem-budget
// defaults; SET changes it for the statements after it, and SHOW
// prints a setting.
//
// Usage:
//
//	csdb                      # interactive shell, in-memory DB
//	csdb -db ./mydb           # open (and on exit save) a directory DB
//	csdb -c "SELECT 1 + 1"    # run one statement
//	csdb -f script.sql        # run a script
//
// A script can state one point of the byte-identity matrix:
//
//	SET workers = 2;
//	SET memory_budget = 65536;
//	SET planner = off;
//	SELECT k, count(*) FROM t GROUP BY k;
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vexdb"
	"vexdb/internal/cliutil"
)

func main() {
	dbDir := flag.String("db", "", "database directory to open (created/saved on exit)")
	command := flag.String("c", "", "execute a single statement and exit")
	file := flag.String("f", "", "execute a SQL script file and exit")
	quiet := flag.Bool("q", false, "suppress timing output")
	workers := flag.Int("workers", 0, "query execution parallelism (0 = all CPUs)")
	memBudget := flag.String("mem-budget", "0", "per-query memory budget for blocking operators, e.g. 64MB (0 = unlimited; over-budget queries spill to -temp-dir)")
	tempDir := flag.String("temp-dir", "", "spill directory for out-of-core execution (default: system temp dir)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline; expired queries stop with an error (0 = none)")
	flag.Parse()

	budget, err := cliutil.ParseByteSize(*memBudget)
	if err != nil {
		fatal(fmt.Errorf("-mem-budget: %w", err))
	}
	opts := vexdb.Options{Parallelism: *workers, MemoryBudget: budget, TempDir: *tempDir, QueryTimeout: *queryTimeout}
	var db *vexdb.DB
	if *dbDir != "" {
		if _, err := os.Stat(*dbDir); err == nil {
			opened, err := vexdb.OpenDirOptions(*dbDir, opts)
			if err != nil {
				fatal(err)
			}
			db = opened
		}
	}
	if db == nil {
		db = vexdb.OpenOptions(opts)
	}
	sess := db.Session()
	defer sess.Close()

	exec := func(stmt string) bool {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			return true
		}
		start := time.Now()
		rows, err := sess.QueryStream(stmt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		defer rows.Close()
		if rows.HasRows() {
			if err := printRows(rows); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return false
			}
		} else if rows.RowsAffected() > 0 {
			fmt.Printf("%d rows affected\n", rows.RowsAffected())
		}
		if !*quiet {
			fmt.Printf("(%v)\n", time.Since(start).Round(time.Microsecond))
		}
		return true
	}

	switch {
	case *command != "":
		if !exec(*command) {
			os.Exit(1)
		}
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		for _, stmt := range splitStatements(string(data)) {
			if !exec(stmt) {
				os.Exit(1)
			}
		}
	default:
		repl(db, exec)
	}

	if *dbDir != "" {
		if err := db.SaveDir(*dbDir); err != nil {
			fatal(err)
		}
	}
}

func repl(db *vexdb.DB, exec func(string) bool) {
	fmt.Println("vexdb shell — end statements with ';', '.tables' lists tables, '.quit' exits")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var pending strings.Builder
	fmt.Print("vexdb> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case ".quit", ".exit":
			return
		case ".tables":
			for _, n := range db.TableNames() {
				fmt.Printf("%s (%d rows)\n", n, db.NumRows(n))
			}
			fmt.Print("vexdb> ")
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			exec(strings.TrimSuffix(strings.TrimSpace(pending.String()), ";"))
			pending.Reset()
		}
		fmt.Print("vexdb> ")
	}
}

// splitStatements splits a script on top-level semicolons (quotes
// respected).
func splitStatements(script string) []string {
	var out []string
	var cur strings.Builder
	inStr := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case c == '\'':
			inStr = !inStr
			cur.WriteByte(c)
		case c == ';' && !inStr:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if strings.TrimSpace(cur.String()) != "" {
		out = append(out, cur.String())
	}
	return out
}

const maxPrintRows = 50

// printRows consumes the stream incrementally: the first maxPrintRows
// rows are buffered for column-aligned display, the rest are only
// counted — total shell memory stays O(maxPrintRows + one chunk)
// however large the result is.
func printRows(rows *vexdb.Rows) error {
	names := rows.Columns()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	var cells [][]string
	n := 0
	for rows.Next() {
		if n < maxPrintRows {
			row := make([]string, len(names))
			for c := range names {
				s := rows.Value(c).String()
				row[c] = s
				if len(s) > widths[c] {
					widths[c] = len(s)
				}
			}
			cells = append(cells, row)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	for i, name := range names {
		fmt.Printf("%-*s ", widths[i], name)
	}
	fmt.Println()
	for i := range names {
		fmt.Print(strings.Repeat("-", widths[i]), " ")
	}
	fmt.Println()
	for _, row := range cells {
		for c := range names {
			fmt.Printf("%-*s ", widths[c], row[c])
		}
		fmt.Println()
	}
	if n > len(cells) {
		fmt.Printf("... (%d more rows)\n", n-len(cells))
	}
	fmt.Printf("%d row(s)\n", n)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csdb:", err)
	os.Exit(1)
}
