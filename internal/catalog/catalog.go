// Package catalog tracks the schema objects of a database instance:
// tables (name, column schema, backing column store) and registered
// user-defined functions. The catalog is safe for concurrent use.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// Column describes one table column.
type Column struct {
	Name string
	Type vector.Type
}

// Schema is an ordered list of columns.
type Schema []Column

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Types returns the column types in order.
func (s Schema) Types() []vector.Type {
	out := make([]vector.Type, len(s))
	for i, c := range s {
		out[i] = c.Type
	}
	return out
}

// IndexOf returns the position of the named column (case-insensitive),
// or -1 when absent.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Table is a catalog entry pairing a schema with its column store.
type Table struct {
	Name   string
	Schema Schema
	Data   *storage.ColumnStore

	// writeMu serializes writers of this table so that the order rows
	// are applied to Data matches the order their WAL records were
	// assigned LSNs. Readers never take it: they pin Data snapshots.
	writeMu sync.Mutex
}

// LockWrites serializes this table's write path (WAL append + apply).
func (t *Table) LockWrites() { t.writeMu.Lock() }

// UnlockWrites releases LockWrites.
func (t *Table) UnlockWrites() { t.writeMu.Unlock() }

// Catalog is the set of tables and functions of one database.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable registers a new table with the given schema and a fresh
// column store. It fails as CheckCreate does.
func (c *Catalog) CreateTable(name string, schema Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkCreateLocked(name, schema); err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, Data: storage.NewColumnStore(schema.Types())}
	c.tables[key(name)] = t
	return t, nil
}

// CheckCreate returns the error CreateTable(name, schema) would fail
// with now: an empty name or one that is taken, no columns, a
// duplicate column name, or a column of invalid type.
func (c *Catalog) CheckCreate(name string, schema Schema) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.checkCreateLocked(name, schema)
}

func (c *Catalog) checkCreateLocked(name string, schema Schema) error {
	if name == "" {
		return fmt.Errorf("catalog: empty table name")
	}
	if len(schema) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", name)
	}
	seen := make(map[string]bool, len(schema))
	for _, col := range schema {
		k := key(col.Name)
		if seen[k] {
			return fmt.Errorf("catalog: table %q: duplicate column %q", name, col.Name)
		}
		seen[k] = true
		if col.Type == vector.Invalid {
			return fmt.Errorf("catalog: table %q: column %q has invalid type", name, col.Name)
		}
	}
	if _, ok := c.tables[key(name)]; ok {
		return fmt.Errorf("catalog: table %q already exists", name)
	}
	return nil
}

// AttachTable registers an existing table object (used when loading a
// database from disk).
func (c *Catalog) AttachTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(t.Name)]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	c.tables[key(t.Name)] = t
	return nil
}

// Table returns the named table (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[key(name)]
	return ok
}

// DropTable removes the named table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(name)]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key(name))
	return nil
}

// Snapshot pins the data of every table at a single point in time: a
// query planned against it reads the same immutable row set from every
// scan, however many writers commit while it streams. The snapshot is
// a pure read — taking one never blocks writers.
type Snapshot struct {
	tables map[*Table]*storage.TableSnapshot
}

// Snapshot captures the current data version of every table.
func (c *Catalog) Snapshot() *Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := &Snapshot{tables: make(map[*Table]*storage.TableSnapshot, len(c.tables))}
	for _, t := range c.tables {
		s.tables[t] = t.Data.Snapshot()
	}
	return s
}

// Data returns the pinned version of t's data, falling back to t's
// live current version when t was created after the snapshot (a reader
// can only reach such a table through a query that named it, and then
// only with whatever rows it sees — still a committed prefix).
func (s *Snapshot) Data(t *Table) *storage.TableSnapshot {
	if s != nil {
		if snap, ok := s.tables[t]; ok {
			return snap
		}
	}
	return t.Data.Snapshot()
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}
