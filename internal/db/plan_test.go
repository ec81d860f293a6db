package db

import (
	"fmt"
	"strings"
	"testing"

	"resultdb/internal/sqlparse"
)

func TestPostJoinPlanAttachedAndExecutable(t *testing.T) {
	d := paperExample(t)
	sql := "SELECT RESULTDB PRESERVING" + listing1[len("\nSELECT"):]
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.PostJoinPlan == nil {
		t.Fatal("RDBRP result must carry a plan")
	}
	if res.PostJoinPlan.Empty() {
		t.Error("plan for a 3-relation query must not be empty")
	}
	if s := res.PostJoinPlan.String(); !strings.Contains(s, "post-join on") {
		t.Errorf("plan String = %q", s)
	}
	set, err := ExecutePostJoinPlan(res)
	if err != nil {
		t.Fatal(err)
	}
	single, err := d.Exec(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumRows() != single.First().NumRows() {
		t.Errorf("plan execution rows = %d, want %d", set.NumRows(), single.First().NumRows())
	}
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := d.PostJoin(sel, res)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(derived.Columns, derived.Rows) != fmt.Sprint(set.Columns, set.Rows) {
		t.Errorf("PostJoin = %v %v, shipped plan = %v %v", derived.Columns, derived.Rows, set.Columns, set.Rows)
	}
}

func TestPostJoinPlanAbsentForRDB(t *testing.T) {
	d := paperExample(t)
	res, err := d.Exec(strings.Replace(listing1, "SELECT", "SELECT RESULTDB", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.PostJoinPlan != nil {
		t.Error("plain RESULTDB must not carry a plan")
	}
	if _, err := ExecutePostJoinPlan(res); err == nil {
		t.Error("executing a missing plan should fail")
	}
}

func TestPostJoinPlanNilHelpers(t *testing.T) {
	var p *PostJoinPlan
	if !p.Empty() {
		t.Error("nil plan is empty")
	}
	if p.String() != "<none>" {
		t.Errorf("nil plan String = %q", p.String())
	}
}

func TestDPJoinOrderProducesSameResults(t *testing.T) {
	d := paperExample(t)
	a, err := d.Exec(listing1)
	if err != nil {
		t.Fatal(err)
	}
	d.DPJoinOrder = true
	b, err := d.Exec(listing1)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := rowsToStrings(a.First().Rows), rowsToStrings(b.First().Rows)
	if strings.Join(ga, "\n") != strings.Join(gb, "\n") {
		t.Errorf("DP order changed results:\n%v\n%v", ga, gb)
	}
}
