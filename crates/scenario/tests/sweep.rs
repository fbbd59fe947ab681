//! `[[sweep]]` expansion: cells are the axes' product, first axis
//! outermost; linked keys move together; and every rejection names the
//! axis's line (and, for a value the decoder rejects, the cell).

use elephant_scenario::toml::parse;
use elephant_scenario::{sweep_cells, Scenario, ScenarioError, SweepCell};

/// A valid document; the `[[sweep]]` header of `axes` lands on line 13.
fn doc(axes: &str) -> String {
    "schema = 1\n\
     [scenario]\n\
     name = \"grid\"\n\
     [topology]\n\
     clusters = 2\n\
     [run]\n\
     horizon_ms = 1.0\n\
     seed = 1\n\
     [[traffic]]\n\
     kind = \"poisson\"\n\
     load = 0.3\n\
     \n"
    .to_string()
        + axes
}

fn cells(axes: &str) -> Vec<SweepCell> {
    sweep_cells(&parse(&doc(axes)).expect("parses")).expect("expands")
}

fn rejected(axes: &str) -> ScenarioError {
    let e = sweep_cells(&parse(&doc(axes)).expect("parses")).expect_err("rejected");
    assert_eq!(e.line, 13, "names the axis's line: {e}");
    e
}

#[test]
fn cells_are_the_product_first_axis_outermost() {
    let cells = cells(
        "[[sweep]]\nkeys = [\"topology.clusters\"]\nvalues = [2, 3]\n\
         [[sweep]]\nkeys = [\"run.seed\"]\nvalues = [5, 6, 7]\n",
    );
    let got: Vec<(u16, u64)> = cells
        .iter()
        .map(|c| (c.scenario.topology.clusters, c.scenario.run.seed))
        .collect();
    assert_eq!(got, [(2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7)]);
    let edits = |k: &str, v: &str| (k.to_string(), v.to_string());
    assert_eq!(
        cells[4].edits,
        [edits("topology.clusters", "3"), edits("run.seed", "6")]
    );
    assert!(cells.iter().all(|c| c.scenario.sweep.is_empty()));
}

#[test]
fn linked_keys_move_together() {
    let keys = "keys = [\"topology.clusters\", \"topology.pdes.partitions\"]";
    let pdes = |c: &SweepCell| {
        (
            c.scenario.topology.clusters,
            c.scenario.topology.pdes.partitions,
        )
    };
    let shared = cells(&format!("[[sweep]]\n{keys}\nvalues = [2, 4]\n"));
    assert_eq!(
        shared.iter().map(pdes).collect::<Vec<_>>(),
        [(2, 2), (4, 4)]
    );
    let tuples = cells(&format!("[[sweep]]\n{keys}\nvalues = [[2, 3], [4, 8]]\n"));
    assert_eq!(
        tuples.iter().map(pdes).collect::<Vec<_>>(),
        [(2, 3), (4, 8)]
    );
}

#[test]
fn a_document_without_axes_is_one_cell() {
    let one = cells("");
    assert_eq!(one.len(), 1);
    assert!(one[0].edits.is_empty());
    assert_eq!(one[0].scenario, Scenario::from_toml_str(&doc("")).unwrap());
}

#[test]
fn an_unknown_key_names_the_axis() {
    let e = rejected("[[sweep]]\nkeys = [\"topology.clustrs\"]\nvalues = [4]\n");
    assert!(e.detail.contains("unknown key `clustrs`"), "{e}");
    // A misspelt axis field is named at its own line, like any key.
    let typo = doc("[[sweep]]\nkey = [\"topology.clusters\"]\nvalues = [4]\n");
    let e = sweep_cells(&parse(&typo).unwrap()).expect_err("rejected");
    assert_eq!(
        (e.line, e.detail.contains("unknown key `key`")),
        (14, true),
        "{e}"
    );
}

#[test]
fn a_model_key_names_the_axis() {
    // The model, and whether a sweep is hybrid at all, come from the base
    // document; an axis over them would be silently ignored.
    for key in ["model.path", "model.full_cluster", "model.train_fallback"] {
        let e = rejected(&format!("[[sweep]]\nkeys = [\"{key}\"]\nvalues = [1]\n"));
        assert!(
            e.detail.contains(&format!("`{key}` cannot be swept")),
            "{e}"
        );
    }
}

#[test]
fn empty_values_name_the_axis() {
    let e = rejected("[[sweep]]\nkeys = [\"topology.clusters\"]\nvalues = []\n");
    assert!(e.detail.contains("must be non-empty"), "{e}");
}

#[test]
fn a_shape_mismatch_names_the_axis() {
    let e =
        rejected("[[sweep]]\nkeys = [\"topology.clusters\", \"run.seed\"]\nvalues = [[2, 3, 4]]\n");
    assert!(e.detail.contains("3 items for 2 keys"), "{e}");
}

#[test]
fn a_rejected_cell_names_the_cell_and_the_axis() {
    let e = rejected("[[sweep]]\nkeys = [\"topology.clusters\"]\nvalues = [2, 0]\n");
    assert!(e.detail.contains("cell 1 (topology.clusters = 0)"), "{e}");
    assert!(e.detail.contains("must be >= 1"), "{e}");
}
