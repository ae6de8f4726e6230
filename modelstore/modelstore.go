// Package modelstore manages trained machine-learning models inside a
// vexdb database: models and their metadata (algorithm,
// hyperparameters, creation order) live in ordinary tables, evaluation
// scores are recorded alongside, and standard relational queries
// select models for inference — the paper's Section 3.3 (and its
// ModelDB comparison) realized on top of the column store.
package modelstore

import (
	"fmt"
	"sort"
	"strings"

	"vexdb"
	"vexdb/ml"
)

// Store manages the model and score tables of one database.
type Store struct {
	db *vexdb.DB
}

// Meta describes one stored model.
type Meta struct {
	ID     int64
	Name   string
	Algo   string
	Params string // "key=value,key=value" hyperparameter record
}

// Score is one recorded evaluation result.
type Score struct {
	ModelID int64
	Dataset string
	Metric  string
	Value   float64
}

// Open initializes (or reuses) the model tables in db.
func Open(db *vexdb.DB) (*Store, error) {
	ddl := []string{
		`CREATE TABLE IF NOT EXISTS ml_models (
			id BIGINT, name VARCHAR, algo VARCHAR, params VARCHAR, model BLOB)`,
		`CREATE TABLE IF NOT EXISTS ml_scores (
			model_id BIGINT, dataset VARCHAR, metric VARCHAR, value DOUBLE)`,
	}
	for _, q := range ddl {
		if _, err := db.Exec(q); err != nil {
			return nil, fmt.Errorf("modelstore: %w", err)
		}
	}
	return &Store{db: db}, nil
}

// Save serializes a fitted model into the ml_models table and returns
// its id. Params records hyperparameters for later relational
// meta-analysis.
func (s *Store) Save(name string, clf ml.Classifier, params map[string]string) (int64, error) {
	blob, err := ml.Marshal(clf)
	if err != nil {
		return 0, fmt.Errorf("modelstore: %w", err)
	}
	id, err := s.nextID()
	if err != nil {
		return 0, err
	}
	// Insert via a registered one-shot table function would be
	// overkill; a literal insert with a hex-free path requires binding
	// the blob directly, so we register the row through the public
	// table API instead: build an INSERT ... VALUES with a placeholder
	// blob is unsupported, hence a tiny staging UDF-free path:
	if err := s.insertModel(id, name, clf.Name(), encodeParams(params), blob); err != nil {
		return 0, err
	}
	return id, nil
}

// insertModel appends a model row. SQL literals cannot carry blobs, so
// the row goes in through a transient table UDF.
func (s *Store) insertModel(id int64, name, algo, params string, blob []byte) error {
	fn := &vexdb.TableFunc{
		Name: "__modelstore_stage",
		Columns: []vexdb.ColumnDecl{
			{Name: "id", Type: vexdb.Int64},
			{Name: "name", Type: vexdb.String},
			{Name: "algo", Type: vexdb.String},
			{Name: "params", Type: vexdb.String},
			{Name: "model", Type: vexdb.Blob},
		},
		Fn: func([]vexdb.TableArg, int) (*vexdb.Table, error) {
			return newModelRow(id, name, algo, params, blob)
		},
	}
	if err := s.db.RegisterTable(fn); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	_, err := s.db.Exec("INSERT INTO ml_models SELECT * FROM __modelstore_stage()")
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
}

func (s *Store) nextID() (int64, error) {
	tab, err := s.db.Query("SELECT max(id) AS m FROM ml_models")
	if err != nil {
		return 0, fmt.Errorf("modelstore: %w", err)
	}
	v := tab.Column("m").Get(0)
	if v.IsNull() {
		return 1, nil
	}
	return v.Int64() + 1, nil
}

// Load fetches and deserializes a model by id.
func (s *Store) Load(id int64) (ml.Classifier, Meta, error) {
	tab, err := s.db.Query(fmt.Sprintf(
		"SELECT id, name, algo, params, model FROM ml_models WHERE id = %d", id))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("modelstore: %w", err)
	}
	if tab.NumRows() == 0 {
		return nil, Meta{}, fmt.Errorf("modelstore: model %d not found", id)
	}
	return rowToModel(tab, 0)
}

// LoadByName fetches the most recently saved model with the given
// name.
func (s *Store) LoadByName(name string) (ml.Classifier, Meta, error) {
	tab, err := s.db.Query(fmt.Sprintf(
		"SELECT id, name, algo, params, model FROM ml_models WHERE name = '%s' ORDER BY id DESC LIMIT 1",
		escape(name)))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("modelstore: %w", err)
	}
	if tab.NumRows() == 0 {
		return nil, Meta{}, fmt.Errorf("modelstore: model %q not found", name)
	}
	return rowToModel(tab, 0)
}

func rowToModel(tab *vexdb.Table, r int) (ml.Classifier, Meta, error) {
	meta := Meta{
		ID:     tab.Column("id").Get(r).Int64(),
		Name:   tab.Column("name").Get(r).Str(),
		Algo:   tab.Column("algo").Get(r).Str(),
		Params: tab.Column("params").Get(r).Str(),
	}
	clf, err := ml.Unmarshal(tab.Column("model").Get(r).Bytes())
	if err != nil {
		return nil, Meta{}, fmt.Errorf("modelstore: model %d: %w", meta.ID, err)
	}
	return clf, meta, nil
}

// List returns metadata for all stored models, ordered by id.
func (s *Store) List() ([]Meta, error) {
	tab, err := s.db.Query("SELECT id, name, algo, params FROM ml_models ORDER BY id")
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	out := make([]Meta, tab.NumRows())
	for i := range out {
		out[i] = Meta{
			ID:     tab.Column("id").Get(i).Int64(),
			Name:   tab.Column("name").Get(i).Str(),
			Algo:   tab.Column("algo").Get(i).Str(),
			Params: tab.Column("params").Get(i).Str(),
		}
	}
	return out, nil
}

// RecordScore stores one evaluation result for a model.
func (s *Store) RecordScore(modelID int64, dataset, metric string, value float64) error {
	_, err := s.db.Exec(fmt.Sprintf(
		"INSERT INTO ml_scores VALUES (%d, '%s', '%s', %g)",
		modelID, escape(dataset), escape(metric), value))
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
}

// Best returns the id of the model with the highest recorded value of
// metric on dataset — model selection as a relational query.
func (s *Store) Best(dataset, metric string) (int64, error) {
	tab, err := s.db.Query(fmt.Sprintf(`
		SELECT model_id FROM ml_scores
		WHERE dataset = '%s' AND metric = '%s'
		ORDER BY value DESC, model_id ASC LIMIT 1`,
		escape(dataset), escape(metric)))
	if err != nil {
		return 0, fmt.Errorf("modelstore: %w", err)
	}
	if tab.NumRows() == 0 {
		return 0, fmt.Errorf("modelstore: no %s scores on %s", metric, dataset)
	}
	return tab.Column("model_id").Get(0).Int64(), nil
}

// Scores returns all recorded scores for a model.
func (s *Store) Scores(modelID int64) ([]Score, error) {
	tab, err := s.db.Query(fmt.Sprintf(
		"SELECT dataset, metric, value FROM ml_scores WHERE model_id = %d ORDER BY dataset, metric", modelID))
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	out := make([]Score, tab.NumRows())
	for i := range out {
		out[i] = Score{
			ModelID: modelID,
			Dataset: tab.Column("dataset").Get(i).Str(),
			Metric:  tab.Column("metric").Get(i).Str(),
			Value:   tab.Column("value").Get(i).Float64(),
		}
	}
	return out, nil
}

func encodeParams(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + params[k]
	}
	return strings.Join(parts, ",")
}

// escape doubles single quotes for safe SQL string literals.
func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }

func newModelRow(id int64, name, algo, params string, blob []byte) (*vexdb.Table, error) {
	idv := vexdb.NewVectorInt64([]int64{id})
	namev := vexdb.NewVectorString([]string{name})
	algov := vexdb.NewVectorString([]string{algo})
	paramsv := vexdb.NewVectorString([]string{params})
	modelv := vexdb.NewVectorBlob([][]byte{blob})
	return vexdb.NewTable(
		[]string{"id", "name", "algo", "params", "model"},
		[]*vexdb.Vector{idv, namev, algov, paramsv, modelv})
}
