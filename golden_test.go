package predeval

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/table"
)

// The in-tree exact golden: the statement shapes of six benchmark
// workloads (exact_scan, approx_grouped, approx_discover, conjunction,
// expensive_udf and catalog_restart's warm restart) run through DB at seeds 1–3 on the
// datasets, UDFs and SQL of cmd/predbench/workloads.go, at full scale.
// Each statement pins its row count, a hash of its row ids, Evaluations,
// Sampled, Retrievals, its cost over the evaluate-everything statement and
// its precision and recall against the dataset's truth; each workload pins
// predbench's cost_ratio, every op's cost over ops × the evaluate-everything
// cost. A change that moves a pin re-pins it in the same diff: on a
// mismatch the test prints every line it computed.
var goldenPins = []string{
	"exact_scan seed=1 rows=10800 hash=fc2881a1a1f51bf8 evals=45000 sampled=0 retrievals=45000 cost_ratio=1 precision=1 recall=1",
	"exact_scan seed=1 cost_ratio=1",
	"approx_grouped/lc seed=1 rows=38113 hash=c45a4e4643a530ea evals=25398 sampled=3174 retrievals=46464 cost_ratio=0.5785754716981132 precision=0.9086138587883399 recall=0.9074947589098532",
	"approx_grouped/prosper seed=1 rows=13437 hash=c7aaa6deb515061a evals=21586 sampled=2173 retrievals=25020 cost_ratio=0.74815 precision=0.9268437895363548 recall=0.9224501888748982",
	"approx_grouped/census seed=1 rows=10903 hash=c7b837fd229c3fe5 evals=27615 sampled=2846 retrievals=29139 cost_ratio=0.6221333333333333 precision=0.9126845822250756 recall=0.9213888888888889",
	"approx_grouped/marketing seed=1 rows=4608 hash=12e3aa670f782c3b evals=22301 sampled=2675 retrievals=22922 cost_ratio=0.5477134146341464 precision=0.9403211805555556 recall=0.9607538802660753",
	"approx_grouped seed=1 cost_ratio=0.6021701183431952",
	"approx_discover seed=1 rows=4477 hash=5673dd1bb69ba2b8 evals=11792 sampled=1726 retrievals=12435 cost_ratio=0.6640416666666666 precision=0.9204824659370114 recall=0.9541560546422783",
	"approx_discover seed=1 cost_ratio=0.6634166666666667",
	"conjunction/approx seed=1 rows=7029 hash=d0d7453c8324c8aa evals=39325 sampled=2173 retrievals=26890 cost_ratio=0.902568799337084 precision=0.9368331199317115 recall=0.9302161322220652",
	"conjunction/exact seed=1 rows=4561 hash=7ca2a155e7a62726 evals=50580 sampled=0 retrievals=30000 cost_ratio=1 precision=1 recall=1",
	"conjunction seed=1 cost_ratio=0.946541439322884",
	"expensive_udf seed=1 rows=13264 hash=4c3342ca94b47aae evals=12870 sampled=1931 retrievals=19759 cost_ratio=0.48640833333333333 precision=0.8356453558504222 recall=0.8209762239834086",
	"expensive_udf seed=1 cost_ratio=0.4726975",
	"catalog_restart/approx seed=1 rows=10903 hash=c7b837fd229c3fe5 evals=0 sampled=2846 retrievals=29139 cost_ratio=0.16188333333333332 precision=0.9126845822250756 recall=0.9213888888888889",
	"catalog_restart/exact seed=1 rows=10800 hash=fc2881a1a1f51bf8 evals=0 sampled=0 retrievals=45000 cost_ratio=0.25 precision=1 recall=1",
	"catalog_restart seed=1 cost_ratio=0.20594166666666666",
	"exact_scan seed=2 rows=10800 hash=607368114d15ff49 evals=45000 sampled=0 retrievals=45000 cost_ratio=1 precision=1 recall=1",
	"exact_scan seed=2 cost_ratio=1",
	"approx_grouped/lc seed=2 rows=37976 hash=d03d03cd1315f6cd evals=27109 sampled=3174 retrievals=46851 cost_ratio=0.6046132075471699 precision=0.9176585211712661 recall=0.9132337526205451",
	"approx_grouped/prosper seed=2 rows=13621 hash=7723e855a2a81148 evals=20465 sampled=2173 retrievals=24697 cost_ratio=0.7174333333333334 precision=0.9091843476984068 recall=0.9172653877490556",
	"approx_grouped/census seed=2 rows=10992 hash=ee553ff6cc92628d evals=27713 sampled=2846 retrievals=29304 cost_ratio=0.6246833333333334 precision=0.9097525473071325 recall=0.9259259259259259",
	"approx_grouped/marketing seed=2 rows=4630 hash=fff879237887bcd5 evals=20634 sampled=2675 retrievals=21359 cost_ratio=0.5076890243902439 precision=0.9278617710583154 recall=0.952549889135255",
	"approx_grouped seed=2 cost_ratio=0.6063098290598291",
	"approx_discover seed=2 rows=4388 hash=25b0da41cb07bbbd evals=11292 sampled=1726 retrievals=12023 cost_ratio=0.6374861111111111 precision=0.912260711030082 recall=0.9268349154896967",
	"approx_discover seed=2 cost_ratio=0.6596944444444445",
	"conjunction/approx seed=2 rows=7746 hash=fe5f7918d8aca0da evals=35311 sampled=2173 retrievals=23653 cost_ratio=0.8073743169909596 precision=0.9573973663826492 recall=0.9172541743970315",
	"conjunction/exact seed=2 rows=4684 hash=c117b19bc1f852dd evals=51586 sampled=0 retrievals=30000 cost_ratio=1 precision=1 recall=1",
	"conjunction seed=2 cost_ratio=0.908573777255731",
	"expensive_udf seed=2 rows=13628 hash=dcb55e9ebaec0daa evals=11849 sampled=1931 retrievals=19626 cost_ratio=0.459775 precision=0.8087026709715293 recall=0.8163099029701504",
	"expensive_udf seed=2 cost_ratio=0.4626275",
	"catalog_restart/approx seed=2 rows=10992 hash=ee553ff6cc92628d evals=0 sampled=2846 retrievals=29304 cost_ratio=0.1628 precision=0.9097525473071325 recall=0.9259259259259259",
	"catalog_restart/exact seed=2 rows=10800 hash=607368114d15ff49 evals=0 sampled=0 retrievals=45000 cost_ratio=0.25 precision=1 recall=1",
	"catalog_restart seed=2 cost_ratio=0.2064",
	"exact_scan seed=3 rows=10800 hash=47d23a80e446cea9 evals=45000 sampled=0 retrievals=45000 cost_ratio=1 precision=1 recall=1",
	"exact_scan seed=3 cost_ratio=1",
	"approx_grouped/lc seed=3 rows=38095 hash=6f542f7d3fd939ba evals=26540 sampled=3174 retrievals=46778 cost_ratio=0.5962169811320754 precision=0.9136369602310015 recall=0.91208071278826",
	"approx_grouped/prosper seed=3 rows=13505 hash=169a41321ea19932 evals=21338 sampled=2173 retrievals=25079 cost_ratio=0.7424416666666667 precision=0.919585338763421 recall=0.9198577883119768",
	"approx_grouped/census seed=3 rows=10895 hash=a439df616db6ddb0 evals=27735 sampled=2846 retrievals=29260 cost_ratio=0.6248055555555555 precision=0.9116108306562644 recall=0.9196296296296296",
	"approx_grouped/marketing seed=3 rows=4503 hash=38d6ff954efa7c0d evals=19629 sampled=2675 retrievals=20291 cost_ratio=0.48279268292682925 precision=0.9329335998223407 recall=0.9314855875831486",
	"approx_grouped seed=3 cost_ratio=0.6049520052596976",
	"approx_discover seed=3 rows=4420 hash=09821ce9089edda2 evals=11535 sampled=1726 retrievals=12181 cost_ratio=0.6498055555555555 precision=0.9156108597285068 recall=0.9370224589025238",
	"approx_discover seed=3 cost_ratio=0.6523402777777778",
	"conjunction/approx seed=3 rows=8389 hash=1e47dca1720d2c87 evals=34542 sampled=2173 retrievals=23653 cost_ratio=0.7930007538799898 precision=0.9409941590177614 recall=0.9302380391232619",
	"conjunction/exact seed=3 rows=4749 hash=47f3389e8f145865 evals=51987 sampled=0 retrievals=30000 cost_ratio=1 precision=1 recall=1",
	"conjunction seed=3 cost_ratio=0.8901053343073293",
	"expensive_udf seed=3 rows=13691 hash=76219a945aa1e892 evals=12371 sampled=1931 retrievals=20000 cost_ratio=0.47594166666666665 precision=0.8184208604192535 recall=0.829938523072365",
	"expensive_udf seed=3 cost_ratio=0.4789933333333333",
	"catalog_restart/approx seed=3 rows=10895 hash=a439df616db6ddb0 evals=0 sampled=2846 retrievals=29260 cost_ratio=0.16255555555555556 precision=0.9116108306562644 recall=0.9196296296296296",
	"catalog_restart/exact seed=3 rows=10800 hash=47d23a80e446cea9 evals=0 sampled=0 retrievals=45000 cost_ratio=0.25 precision=1 recall=1",
	"catalog_restart seed=3 cost_ratio=0.20627777777777778",
}

// Op counts of cmd/predbench/workloads.go. An exact_scan op and a
// catalog_restart op replay the same statements on a database in the same
// state (cache off; a catalog each op leaves as it found it), so one op
// stands for all of them; the approximate ops draw under successive
// statement keys, so they all run.
const (
	goldenOpsApproxGrouped  = 9
	goldenOpsApproxDiscover = 10
	goldenOpsConjunction    = 11
	goldenOpsExpensiveUDF   = 10
)

func TestGoldenBenchmarkStatements(t *testing.T) {
	var got []string
	for seed := uint64(1); seed <= 3; seed++ {
		got = append(got, goldenSeed(t, seed)...)
	}
	ok := len(got) == len(goldenPins)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i] == goldenPins[i]
	}
	if ok {
		return
	}
	for i := 0; i < max(len(got), len(goldenPins)); i++ {
		g, w := "(none)", "(none)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(goldenPins) {
			w = goldenPins[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i, g, w)
		}
	}
	var sb strings.Builder
	for _, l := range got {
		fmt.Fprintf(&sb, "\t%q,\n", l)
	}
	t.Logf("computed pins:\n%s", sb.String())
}

// goldenUDF is a predicate as a workload registers it: the instant label UDF.
type goldenUDF struct {
	name   string
	labels []bool
}

func goldenDB(t *testing.T, seed uint64, cache bool, tbl *table.Table, udfs []goldenUDF) *DB {
	t.Helper()
	db := Open(seed)
	db.SetUDFCache(cache)
	if err := db.Engine().RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	for _, u := range udfs {
		labels := u.labels
		if err := db.RegisterUDF(u.name, func(v any) bool { return labels[v.(int64)] }, 0); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func goldenQuery(t *testing.T, db *DB, sql string) *Rows {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows
}

// goldenCold is the evaluate-everything cost of each statement: run once,
// exact, on a cold database with the cross-query cache off.
func goldenCold(t *testing.T, seed uint64, tbl *table.Table, udfs []goldenUDF, sqls ...string) []float64 {
	t.Helper()
	db := goldenDB(t, seed, false, tbl, udfs)
	out := make([]float64, len(sqls))
	for i, sql := range sqls {
		out[i] = goldenQuery(t, db, sql).Stats().Cost
	}
	return out
}

// goldenLine renders one statement's pins.
func goldenLine(name string, seed uint64, rows *Rows, truth func(int) bool, totalCorrect int, cold float64) string {
	ids := rows.RowIDs()
	h := uint64(14695981039346656037) // FNV-1a over the ids
	correct := 0
	for _, id := range ids {
		h ^= uint64(id)
		h *= 1099511628211
		if truth(id) {
			correct++
		}
	}
	precision, recall := 1.0, 1.0
	if len(ids) > 0 {
		precision = float64(correct) / float64(len(ids))
	}
	if totalCorrect > 0 {
		recall = float64(correct) / float64(totalCorrect)
	}
	st := rows.Stats()
	return fmt.Sprintf("%s seed=%d rows=%d hash=%016x evals=%d sampled=%d retrievals=%d cost_ratio=%v precision=%v recall=%v",
		name, seed, len(ids), h, st.Evaluations, st.Sampled, st.Retrievals, st.Cost/cold, precision, recall)
}

func goldenRatio(name string, seed uint64, cost, ops, cold float64) string {
	return fmt.Sprintf("%s seed=%d cost_ratio=%v", name, seed, cost/(ops*cold))
}

func goldenSeed(t *testing.T, seed uint64) []string {
	t.Helper()
	var lines []string
	sets := map[string]*dataset.Dataset{}
	for _, spec := range dataset.All() {
		d, err := dataset.Generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		sets[spec.Name] = d
	}
	census := sets[dataset.Census.Name]
	with := func(groupOn string) string {
		s := " WITH PRECISION 0.9 RECALL 0.9 PROBABILITY 0.9"
		if groupOn != "" {
			s += " GROUP ON " + groupOn
		}
		return s
	}

	// exact_scan: census, cache off.
	{
		udfs := []goldenUDF{{"f", census.Labels}}
		base := "SELECT id FROM census WHERE f(id) = 1"
		cold := goldenCold(t, seed, census.Table, udfs, base)[0]
		rows := goldenQuery(t, goldenDB(t, seed, false, census.Table, udfs), base)
		lines = append(lines, goldenLine("exact_scan", seed, rows, census.Truth(), census.TotalCorrect(), cold),
			goldenRatio("exact_scan", seed, rows.Stats().Cost, 1, cold))
	}

	// approx_grouped: the four datasets grouped on their predictor, one
	// database each, cache off; an op queries each once.
	{
		var dbs []*DB
		var colds []float64
		baseline, cost := 0.0, 0.0
		for _, spec := range dataset.All() {
			d := sets[spec.Name]
			udfs := []goldenUDF{{"f", d.Labels}}
			cold := goldenCold(t, seed, d.Table, udfs, "SELECT id FROM "+spec.Name+" WHERE f(id) = 1")[0]
			dbs, colds, baseline = append(dbs, goldenDB(t, seed, false, d.Table, udfs)), append(colds, cold), baseline+cold
		}
		for op := 0; op < goldenOpsApproxGrouped; op++ {
			for i, spec := range dataset.All() {
				d := sets[spec.Name]
				rows := goldenQuery(t, dbs[i], "SELECT id FROM "+spec.Name+" WHERE f(id) = 1"+with(spec.Predictor))
				cost += rows.Stats().Cost
				if op == 0 {
					lines = append(lines, goldenLine("approx_grouped/"+spec.Name, seed, rows, d.Truth(), d.TotalCorrect(), colds[i]))
				}
			}
		}
		lines = append(lines, goldenRatio("approx_grouped", seed, cost, goldenOpsApproxGrouped, baseline))
	}

	// approx_discover: census at 0.4 scale, no GROUP ON, cache off.
	{
		d, err := dataset.Generate(dataset.Census.Scaled(0.4), seed)
		if err != nil {
			t.Fatal(err)
		}
		udfs := []goldenUDF{{"f", d.Labels}}
		base := "SELECT id FROM census WHERE f(id) = 1"
		cold := goldenCold(t, seed, d.Table, udfs, base)[0]
		db := goldenDB(t, seed, false, d.Table, udfs)
		cost := 0.0
		for op := 0; op < goldenOpsApproxDiscover; op++ {
			rows := goldenQuery(t, db, base+with(""))
			cost += rows.Stats().Cost
			if op == 0 {
				lines = append(lines, goldenLine("approx_discover", seed, rows, d.Truth(), d.TotalCorrect(), cold))
			}
		}
		lines = append(lines, goldenRatio("approx_discover", seed, cost, goldenOpsApproxDiscover, cold))
	}

	// conjunction: prosper with g and h correlated with grade, the §5
	// two-predicate plan and three-predicate exact waves, cache off.
	{
		d := sets[dataset.Prosper.Name]
		grade, err := d.Table.StringColumn("grade")
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed ^ 0x636f6e6a)
		n := d.Table.NumRows()
		g, h := make([]bool, n), make([]bool, n)
		both, allThree := 0, 0
		for i := 0; i < n; i++ {
			k := float64(grade.Code(i)) / float64(grade.Cardinality())
			g[i] = rng.Bernoulli(0.35 + 0.5*k)
			h[i] = rng.Bernoulli(0.8 - 0.4*k)
			if d.Labels[i] && g[i] {
				both++
				if h[i] {
					allThree++
				}
			}
		}
		udfs := []goldenUDF{{"f", d.Labels}, {"g", g}, {"h", h}}
		base := "SELECT id FROM prosper WHERE f(id) = 1 AND g(id) = 1"
		exactSQL := base + " AND h(id) = 1"
		colds := goldenCold(t, seed, d.Table, udfs, base, exactSQL)
		db := goldenDB(t, seed, false, d.Table, udfs)
		cost := 0.0
		for op := 0; op < goldenOpsConjunction; op++ {
			approx := goldenQuery(t, db, base+with("grade"))
			exact := goldenQuery(t, db, exactSQL)
			cost += approx.Stats().Cost + exact.Stats().Cost
			if op == 0 {
				lines = append(lines,
					goldenLine("conjunction/approx", seed, approx, func(r int) bool { return d.Labels[r] && g[r] }, both, colds[0]),
					goldenLine("conjunction/exact", seed, exact, func(r int) bool { return d.Labels[r] && g[r] && h[r] }, allThree, colds[1]))
			}
		}
		lines = append(lines, goldenRatio("conjunction", seed, cost, goldenOpsConjunction, colds[0]+colds[1]))
	}

	// expensive_udf: prosper at 0.8/0.8/0.8 grouped on grade, cache off.
	// The workload's UDF burns rounds but answers the label, so the instant
	// label UDF gives the same verdicts and the same cost.
	{
		d := sets[dataset.Prosper.Name]
		udfs := []goldenUDF{{"f", d.Labels}}
		base := "SELECT id FROM prosper WHERE f(id) = 1"
		cold := goldenCold(t, seed, d.Table, udfs, base)[0]
		db := goldenDB(t, seed, false, d.Table, udfs)
		cost := 0.0
		for op := 0; op < goldenOpsExpensiveUDF; op++ {
			rows := goldenQuery(t, db, base+" WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade")
			cost += rows.Stats().Cost
			if op == 0 {
				lines = append(lines, goldenLine("expensive_udf", seed, rows, d.Truth(), d.TotalCorrect(), cold))
			}
		}
		lines = append(lines, goldenRatio("expensive_udf", seed, cost, goldenOpsExpensiveUDF, cold))
	}

	// catalog_restart: a cold pass on census writes the durable catalog;
	// the warm restart opens it on a fresh database, answers the
	// approximate and the exact statement from it, and closes it.
	{
		udfs := []goldenUDF{{"f", census.Labels}}
		base := "SELECT id FROM census WHERE f(id) = 1"
		colds := goldenCold(t, seed, census.Table, udfs, base, base)
		dir := t.TempDir()
		db := goldenDB(t, seed, true, census.Table, udfs)
		if err := db.OpenCatalog(dir); err != nil {
			t.Fatal(err)
		}
		goldenQuery(t, db, base+with(""))
		goldenQuery(t, db, base)
		if err := db.CloseCatalog(); err != nil {
			t.Fatal(err)
		}
		warm := goldenDB(t, seed, true, census.Table, udfs)
		if err := warm.OpenCatalog(dir); err != nil {
			t.Fatal(err)
		}
		approx := goldenQuery(t, warm, base+with(""))
		exact := goldenQuery(t, warm, base)
		if err := warm.CloseCatalog(); err != nil {
			t.Fatal(err)
		}
		lines = append(lines,
			goldenLine("catalog_restart/approx", seed, approx, census.Truth(), census.TotalCorrect(), colds[0]),
			goldenLine("catalog_restart/exact", seed, exact, census.Truth(), census.TotalCorrect(), colds[1]),
			goldenRatio("catalog_restart", seed, approx.Stats().Cost+exact.Stats().Cost, 1, colds[0]+colds[1]))
	}
	return lines
}
