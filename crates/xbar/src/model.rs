use std::collections::VecDeque;
use std::fmt;

/// What a memristor junction is programmed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceAssignment {
    /// Unused junction: always high resistance.
    #[default]
    Off,
    /// Stuck-on junction (logic `1`): always low resistance. COMPACT uses
    /// these to bridge the wordline and bitline of a `VH`-labelled node.
    On,
    /// A literal of Boolean input `input`: low resistance when the literal
    /// evaluates true.
    Literal {
        /// Index of the Boolean input variable.
        input: usize,
        /// Whether the literal is the negation of the input.
        negated: bool,
    },
}

impl DeviceAssignment {
    /// The conductance state of the device under an input assignment.
    ///
    /// An out-of-range literal index is a programming bug; it trips a
    /// `debug_assert` in debug builds and reads as non-conducting in
    /// release builds. [`Crossbar`] evaluation checks every programmed
    /// literal first and surfaces the bug as [`XbarError::BadLiteral`].
    pub fn conducts(self, inputs: &[bool]) -> bool {
        match self {
            DeviceAssignment::Off => false,
            DeviceAssignment::On => true,
            DeviceAssignment::Literal { input, negated } => {
                debug_assert!(
                    input < inputs.len(),
                    "literal input {input} out of range ({} inputs)",
                    inputs.len()
                );
                inputs.get(input).is_some_and(|&b| b ^ negated)
            }
        }
    }

    /// Whether the device is assigned a literal (counted as "active" by the
    /// paper's power model).
    pub fn is_literal(self) -> bool {
        matches!(self, DeviceAssignment::Literal { .. })
    }
}

impl fmt::Display for DeviceAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceAssignment::Off => write!(f, "0"),
            DeviceAssignment::On => write!(f, "1"),
            DeviceAssignment::Literal { input, negated } => {
                write!(f, "{}x{}", if *negated { "!" } else { "" }, input)
            }
        }
    }
}

/// A named output port bound to a wordline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Output name (the circuit's output net name).
    pub name: String,
    /// Wordline (row) index the output is sensed on.
    pub row: usize,
}

/// Errors from crossbar construction and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XbarError {
    /// A row index was out of range.
    RowOutOfRange {
        /// Offending index.
        row: usize,
        /// Number of rows.
        rows: usize,
    },
    /// A column index was out of range.
    ColOutOfRange {
        /// Offending index.
        col: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Evaluation was given the wrong number of input values.
    InputLen {
        /// Values supplied.
        got: usize,
        /// Inputs expected.
        expected: usize,
    },
    /// The crossbar has no input port assigned.
    NoInputPort,
    /// A programmed literal references an input index the crossbar does not
    /// have — a programming bug, surfaced as a typed error by the checked
    /// evaluation paths.
    BadLiteral {
        /// The literal's (out-of-range) input index.
        input: usize,
        /// Number of inputs the evaluation supplied.
        num_inputs: usize,
    },
    /// A verification reference disagrees with the crossbar on the input
    /// count.
    ReferenceInputMismatch {
        /// Inputs of the reference network.
        reference: usize,
        /// Inputs of the crossbar.
        crossbar: usize,
    },
    /// A row/column permutation handed to [`Crossbar::place`] was
    /// malformed (wrong length, out-of-range target, or duplicate target).
    Placement {
        /// What was wrong with the permutation.
        reason: String,
    },
    /// A cooperative budget was exhausted mid-verification.
    Budget(flowc_budget::BudgetExceeded),
}

impl fmt::Display for XbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbarError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (crossbar has {rows} rows)")
            }
            XbarError::ColOutOfRange { col, cols } => {
                write!(f, "column {col} out of range (crossbar has {cols} columns)")
            }
            XbarError::InputLen { got, expected } => {
                write!(f, "got {got} input values, crossbar expects {expected}")
            }
            XbarError::NoInputPort => write!(f, "crossbar has no input port"),
            XbarError::BadLiteral { input, num_inputs } => write!(
                f,
                "programmed literal references input {input} but only {num_inputs} inputs exist"
            ),
            XbarError::ReferenceInputMismatch {
                reference,
                crossbar,
            } => write!(
                f,
                "reference network has {reference} inputs but the crossbar has {crossbar}"
            ),
            XbarError::Placement { reason } => write!(f, "bad placement: {reason}"),
            XbarError::Budget(e) => write!(f, "verification interrupted: {e}"),
        }
    }
}

impl From<flowc_budget::BudgetExceeded> for XbarError {
    fn from(e: flowc_budget::BudgetExceeded) -> Self {
        XbarError::Budget(e)
    }
}

impl std::error::Error for XbarError {}

/// One programmed junction seen from one of its two wires: the wire on
/// the other side and the junction's literal-table code.
///
/// Codes index the per-call literal table of the flow kernel: `0` is
/// [`DeviceAssignment::On`], `1 + 2i` is `x_i` and `2 + 2i` is `!x_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Junction {
    wire: u32,
    code: u32,
}

/// The literal-table code of a programmed assignment (`None` for
/// [`DeviceAssignment::Off`], or for a literal index too large to encode).
fn encode(a: DeviceAssignment) -> Option<u32> {
    match a {
        DeviceAssignment::Off => None,
        DeviceAssignment::On => Some(0),
        DeviceAssignment::Literal { input, negated } => u32::try_from(input)
            .ok()
            .filter(|&i| i < u32::MAX / 2)
            .map(|i| 1 + 2 * i + u32::from(negated)),
    }
}

fn decode(code: u32) -> DeviceAssignment {
    match code {
        0 => DeviceAssignment::On,
        c => DeviceAssignment::Literal {
            input: (c as usize - 1) / 2,
            negated: c % 2 == 0,
        },
    }
}

/// Writes (or, for `code == None`, removes) the junction to `wire` in a
/// wire's adjacency list, keeping the list sorted by wire.
fn write_junction(list: &mut Vec<Junction>, wire: u32, code: Option<u32>) {
    match (list.binary_search_by_key(&wire, |j| j.wire), code) {
        (Ok(i), Some(code)) => list[i].code = code,
        (Ok(i), None) => {
            list.remove(i);
        }
        (Err(i), Some(code)) => list.insert(i, Junction { wire, code }),
        (Err(_), None) => {}
    }
}

/// A crossbar design: the programmed junctions plus input/output port
/// bindings.
///
/// Rows are wordlines, columns are bitlines. `input_row` is the wordline
/// driven with the supply voltage during evaluation (the paper drives the
/// bottom-most wordline); each output is sensed on its own wordline.
///
/// Only programmed junctions are stored, as two sorted adjacency lists:
/// each row lists its junctions by column and each column by row. The
/// lists are the wire graph the flow kernel walks, so the store is the
/// evaluation program; unset junctions cost nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    row_junctions: Vec<Vec<Junction>>,
    col_junctions: Vec<Vec<Junction>>,
    /// Programmed literals whose input index is `>= num_inputs`; any such
    /// junction makes evaluation fail with [`XbarError::BadLiteral`].
    bad_literals: usize,
    num_inputs: usize,
    input_row: Option<usize>,
    outputs: Vec<Port>,
    row_labels: Vec<String>,
    col_labels: Vec<String>,
}

impl Crossbar {
    /// Creates an all-off crossbar with `rows × cols` junctions for a
    /// function of `num_inputs` Boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics when `rows` or `cols` exceeds `u32::MAX`.
    pub fn new(rows: usize, cols: usize, num_inputs: usize) -> Self {
        assert!(
            u32::try_from(rows).is_ok() && u32::try_from(cols).is_ok(),
            "crossbar of {rows}×{cols} exceeds u32 wire indices"
        );
        Crossbar {
            rows,
            cols,
            row_junctions: vec![Vec::new(); rows],
            col_junctions: vec![Vec::new(); cols],
            bad_literals: 0,
            num_inputs,
            input_row: None,
            outputs: Vec::new(),
            row_labels: vec![String::new(); rows],
            col_labels: vec![String::new(); cols],
        }
    }

    /// Number of wordlines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of Boolean inputs the device literals may reference.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    fn check(&self, row: usize, col: usize) -> crate::Result<()> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        if col >= self.cols {
            return Err(XbarError::ColOutOfRange {
                col,
                cols: self.cols,
            });
        }
        Ok(())
    }

    fn is_bad(&self, a: DeviceAssignment) -> bool {
        matches!(a, DeviceAssignment::Literal { input, .. } if input >= self.num_inputs)
    }

    /// Programs the junction at `(row, col)`; writing
    /// [`DeviceAssignment::Off`] removes it.
    ///
    /// # Errors
    ///
    /// Returns an error when either index is out of range, or
    /// [`XbarError::BadLiteral`] for a literal whose input index is too
    /// large to encode (`>= 2^31 - 1`, far beyond any practical input
    /// count).
    pub fn set(&mut self, row: usize, col: usize, a: DeviceAssignment) -> crate::Result<()> {
        self.check(row, col)?;
        let code = encode(a);
        if let (DeviceAssignment::Literal { input, .. }, None) = (a, code) {
            return Err(XbarError::BadLiteral {
                input,
                num_inputs: self.num_inputs,
            });
        }
        if self.is_bad(self.get(row, col)?) {
            self.bad_literals -= 1;
        }
        if self.is_bad(a) {
            self.bad_literals += 1;
        }
        // Indices fit: `new` bounds both dimensions by u32::MAX.
        write_junction(&mut self.row_junctions[row], col as u32, code);
        write_junction(&mut self.col_junctions[col], row as u32, code);
        Ok(())
    }

    /// The junction assignment at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns an error when either index is out of range.
    pub fn get(&self, row: usize, col: usize) -> crate::Result<DeviceAssignment> {
        self.check(row, col)?;
        let list = &self.row_junctions[row];
        Ok(list
            .binary_search_by_key(&(col as u32), |j| j.wire)
            .map_or(DeviceAssignment::Off, |i| decode(list[i].code)))
    }

    /// Binds the input port (driven wordline).
    ///
    /// # Errors
    ///
    /// Returns an error when `row` is out of range.
    pub fn set_input_row(&mut self, row: usize) -> crate::Result<()> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        self.input_row = Some(row);
        Ok(())
    }

    /// The input port wordline, if bound.
    pub fn input_row(&self) -> Option<usize> {
        self.input_row
    }

    /// Adds an output port on wordline `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when `row` is out of range.
    pub fn add_output(&mut self, name: impl Into<String>, row: usize) -> crate::Result<()> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        self.outputs.push(Port {
            name: name.into(),
            row,
        });
        Ok(())
    }

    /// The output ports in binding order.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Sets a debugging label on a wordline (e.g. the BDD node it realizes).
    ///
    /// # Errors
    ///
    /// Returns an error when `row` is out of range.
    pub fn set_row_label(&mut self, row: usize, label: impl Into<String>) -> crate::Result<()> {
        if row >= self.rows {
            return Err(XbarError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        self.row_labels[row] = label.into();
        Ok(())
    }

    /// Sets a debugging label on a bitline.
    ///
    /// # Errors
    ///
    /// Returns an error when `col` is out of range.
    pub fn set_col_label(&mut self, col: usize, label: impl Into<String>) -> crate::Result<()> {
        if col >= self.cols {
            return Err(XbarError::ColOutOfRange {
                col,
                cols: self.cols,
            });
        }
        self.col_labels[col] = label.into();
        Ok(())
    }

    /// The label of a wordline (empty when unset or out of range).
    pub fn row_label(&self, row: usize) -> &str {
        self.row_labels.get(row).map_or("", String::as_str)
    }

    /// The label of a bitline (empty when unset or out of range).
    pub fn col_label(&self, col: usize) -> &str {
        self.col_labels.get(col).map_or("", String::as_str)
    }

    /// Iterates over all non-[`DeviceAssignment::Off`] junctions as
    /// `(row, col, assignment)`, in row-major order.
    pub fn programmed_devices(
        &self,
    ) -> impl Iterator<Item = (usize, usize, DeviceAssignment)> + '_ {
        self.row_junctions.iter().enumerate().flat_map(|(r, list)| {
            list.iter()
                .map(move |j| (r, j.wire as usize, decode(j.code)))
        })
    }

    /// Checks an evaluation's arity and the programmed literals against
    /// it: [`XbarError::InputLen`] first, then [`XbarError::BadLiteral`]
    /// for the first out-of-range literal in row-major order, whether or
    /// not the flow would ever reach it.
    fn check_inputs(&self, got: usize) -> crate::Result<()> {
        if got != self.num_inputs {
            return Err(XbarError::InputLen {
                got,
                expected: self.num_inputs,
            });
        }
        if self.bad_literals == 0 {
            return Ok(());
        }
        let input = self
            .programmed_devices()
            .find_map(|(_, _, a)| match a {
                DeviceAssignment::Literal { input, .. } if input >= got => Some(input),
                _ => None,
            })
            .expect("bad_literals counts a programmed literal");
        Err(XbarError::BadLiteral {
            input,
            num_inputs: got,
        })
    }

    /// Programs the crossbar for an input assignment: returns the conducting
    /// state of each junction (row-major, dense `rows × cols`).
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLen`] on a wrong-sized assignment, or
    /// [`XbarError::BadLiteral`] when a programmed literal's index is out
    /// of range.
    pub fn program(&self, inputs: &[bool]) -> crate::Result<Vec<bool>> {
        self.check_inputs(inputs.len())?;
        let mut conducting = vec![false; self.rows * self.cols];
        for (r, c, a) in self.programmed_devices() {
            conducting[r * self.cols + c] = a.conducts(inputs);
        }
        Ok(conducting)
    }

    /// Flow-based evaluation: programs the devices and returns, for each
    /// output port, whether a conducting path connects the input wordline to
    /// that output wordline. This is the idealised sneak-path model; see
    /// [`crate::circuit`] for the electrical version.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::NoInputPort`] when no input row is bound,
    /// [`XbarError::InputLen`] on a wrong-sized assignment, or
    /// [`XbarError::BadLiteral`] when a programmed literal's index is out
    /// of range — the same errors, in the same order, as
    /// [`Crossbar::evaluate64`].
    pub fn evaluate(&self, inputs: &[bool]) -> crate::Result<Vec<bool>> {
        let reached = self.reachable_rows(inputs)?;
        Ok(self.outputs.iter().map(|p| reached[p.row]).collect())
    }

    /// The set of wordlines electrically connected to the input wordline
    /// under an assignment.
    ///
    /// # Errors
    ///
    /// See [`Crossbar::evaluate`].
    pub fn reachable_rows(&self, inputs: &[bool]) -> crate::Result<Vec<bool>> {
        // One assignment broadcast to every lane: all lanes move together,
        // so the kernel does the work of one.
        let words: Vec<u64> = inputs
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        Ok(self.row_reach(&words)?.iter().map(|&m| m != 0).collect())
    }

    /// Evaluates 64 input assignments at once: bit `k` of `input_words[i]`
    /// is input `i` in assignment `k`; bit `k` of output word `j` reports
    /// output `j` under assignment `k`. Reachability travels as 64-bit
    /// lane masks through one worklist pass over the programmed junctions
    /// (see [`Crossbar::evaluate`] for the scalar view of the same
    /// kernel), so its cost is shared across all 64 lanes — this is what
    /// makes large verification sweeps cheap.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::NoInputPort`] when no input row is bound,
    /// [`XbarError::InputLen`] on a wrong-sized assignment, or
    /// [`XbarError::BadLiteral`] when a programmed literal's index is out
    /// of range (even on a junction no path reaches).
    pub fn evaluate64(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        let reach = self.row_reach(input_words)?;
        Ok(self.outputs.iter().map(|p| reach[p.row]).collect())
    }

    /// Checks the call, builds the literal table and runs the flow
    /// kernel; returns the reach mask of every row.
    fn row_reach(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        let input_row = self.input_row.ok_or(XbarError::NoInputPort)?;
        self.check_inputs(input_words.len())?;
        let mut literals = Vec::with_capacity(1 + 2 * input_words.len());
        literals.push(u64::MAX);
        for &w in input_words {
            literals.extend([w, !w]);
        }
        let mut reach = self.flow(input_row, &literals);
        reach.truncate(self.rows);
        Ok(reach)
    }

    /// The flow kernel. Wires are numbered rows `0..R`, then columns
    /// `R..R+C`; `literals` maps each junction code to its conducting
    /// lanes. Starting from the input row with every lane set, a FIFO
    /// worklist hands each wire the lanes it gained since it was last
    /// visited; those lanes cross each conducting junction to wires that
    /// lack them. A wire is queued only when it gains lanes while not
    /// already queued, so the queue never holds more than `R + C` wires.
    /// FIFO order matters: it settles wires roughly breadth-first, while a
    /// stack revisits deep wires once per lane group that reaches them.
    fn flow(&self, input_row: usize, literals: &[u64]) -> Vec<u64> {
        let rows = self.rows;
        let wires = rows + self.cols;
        let mut reach = vec![0u64; wires];
        let mut gained = vec![0u64; wires];
        let mut queue = VecDeque::with_capacity(wires);
        reach[input_row] = u64::MAX;
        gained[input_row] = u64::MAX;
        queue.push_back(input_row);
        while let Some(w) = queue.pop_front() {
            let lanes = std::mem::take(&mut gained[w]);
            let (junctions, offset) = if w < rows {
                (&self.row_junctions[w], rows)
            } else {
                (&self.col_junctions[w - rows], 0)
            };
            for j in junctions {
                let to = offset + j.wire as usize;
                let new = lanes & literals[j.code as usize] & !reach[to];
                if new != 0 {
                    reach[to] |= new;
                    if gained[to] == 0 {
                        queue.push_back(to);
                    }
                    gained[to] |= new;
                }
            }
        }
        reach
    }

    /// Re-places the design onto a (possibly larger) physical grid:
    /// logical row `r` lands on physical wordline `row_perm[r]`, logical
    /// column `c` on physical bitline `col_perm[c]`. Devices, port
    /// bindings, and labels all move together; physical lines not in the
    /// image of the permutation are left all-[`DeviceAssignment::Off`]
    /// (spare lines). This is the mechanism the defect-aware repair pass
    /// uses to steer programmed junctions away from faulty cells.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::Placement`] when a permutation has the wrong
    /// length, targets an out-of-range line, or maps two logical lines to
    /// the same physical line.
    pub fn place(
        &self,
        row_perm: &[usize],
        col_perm: &[usize],
        phys_rows: usize,
        phys_cols: usize,
    ) -> crate::Result<Crossbar> {
        let check_perm = |perm: &[usize], len: usize, bound: usize, kind: &str| {
            if perm.len() != len {
                return Err(XbarError::Placement {
                    reason: format!("{kind} permutation has {} entries, need {len}", perm.len()),
                });
            }
            let mut used = vec![false; bound];
            for &p in perm {
                if p >= bound {
                    return Err(XbarError::Placement {
                        reason: format!("{kind} target {p} out of range (physical size {bound})"),
                    });
                }
                if used[p] {
                    return Err(XbarError::Placement {
                        reason: format!("{kind} target {p} used twice"),
                    });
                }
                used[p] = true;
            }
            Ok(())
        };
        check_perm(row_perm, self.rows, phys_rows, "row")?;
        check_perm(col_perm, self.cols, phys_cols, "column")?;
        let mut placed = Crossbar::new(phys_rows, phys_cols, self.num_inputs);
        for (r, c, a) in self.programmed_devices() {
            placed.set(row_perm[r], col_perm[c], a)?;
        }
        if let Some(input_row) = self.input_row {
            placed.input_row = Some(row_perm[input_row]);
        }
        for p in &self.outputs {
            placed.outputs.push(Port {
                name: p.name.clone(),
                row: row_perm[p.row],
            });
        }
        for (r, label) in self.row_labels.iter().enumerate() {
            placed.row_labels[row_perm[r]] = label.clone();
        }
        for (c, label) in self.col_labels.iter().enumerate() {
            placed.col_labels[col_perm[c]] = label.clone();
        }
        Ok(placed)
    }

    /// Renders the device grid as text (one row per wordline), as in the
    /// paper's Figure 2(c) matrices. Intended for debugging small designs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (r, list) in self.row_junctions.iter().enumerate() {
            let mut programmed = list.iter().peekable();
            for c in 0..self.cols {
                let a = programmed
                    .next_if(|j| j.wire as usize == c)
                    .map_or(DeviceAssignment::Off, |j| decode(j.code));
                let _ = write!(out, "{:>4}", a.to_string());
            }
            let mut tags = Vec::new();
            if Some(r) == self.input_row {
                tags.push("in".to_string());
            }
            for p in &self.outputs {
                if p.row == r {
                    tags.push(format!("out:{}", p.name));
                }
            }
            if tags.is_empty() {
                let _ = writeln!(out);
            } else {
                let _ = writeln!(out, "   <- {}", tags.join(","));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 crossbar for f = (a ∧ b) ∨ c.
    ///
    /// Wires: rows = [1-terminal (input), node b, node a (output root)],
    /// cols = [node c's bitline / bridge structure]. We reproduce the spirit
    /// with an explicit hand mapping:
    ///   row0 = input (terminal 1), row1 = internal, row2 = output.
    fn fig2_crossbar() -> Crossbar {
        // f = (a AND b) OR c over inputs [a, b, c].
        // Layout: col0 connects row0-row1 via literal b; col1 connects
        // row1-row2 via literal a; col2 connects row0-row2 via literal c.
        let mut x = Crossbar::new(3, 3, 3);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 1,
                negated: false,
            },
        )
        .unwrap();
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set(
            1,
            1,
            DeviceAssignment::Literal {
                input: 0,
                negated: false,
            },
        )
        .unwrap();
        x.set(2, 1, DeviceAssignment::On).unwrap();
        x.set(
            0,
            2,
            DeviceAssignment::Literal {
                input: 2,
                negated: false,
            },
        )
        .unwrap();
        x.set(2, 2, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f", 2).unwrap();
        x
    }

    #[test]
    fn fig2_truth_table() {
        let x = fig2_crossbar();
        for bits in 0u32..8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            let out = x.evaluate(&[a, b, c]).unwrap();
            assert_eq!(out, vec![(a && b) || c], "{bits:03b}");
        }
    }

    #[test]
    fn assignments_conduct_correctly() {
        let on = DeviceAssignment::On;
        let off = DeviceAssignment::Off;
        let lit = DeviceAssignment::Literal {
            input: 0,
            negated: false,
        };
        let nlit = DeviceAssignment::Literal {
            input: 0,
            negated: true,
        };
        assert!(on.conducts(&[false]));
        assert!(!off.conducts(&[true]));
        assert!(lit.conducts(&[true]) && !lit.conducts(&[false]));
        assert!(nlit.conducts(&[false]) && !nlit.conducts(&[true]));
        assert!(lit.is_literal() && nlit.is_literal());
        assert!(!on.is_literal() && !off.is_literal());
    }

    #[test]
    fn bounds_checked() {
        let mut x = Crossbar::new(2, 2, 1);
        assert!(matches!(
            x.set(2, 0, DeviceAssignment::On),
            Err(XbarError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            x.set(0, 5, DeviceAssignment::On),
            Err(XbarError::ColOutOfRange { .. })
        ));
        assert!(x.set_input_row(3).is_err());
        assert!(x.add_output("f", 9).is_err());
        assert!(x.get(0, 0).is_ok());
    }

    #[test]
    fn missing_input_port_is_error() {
        let x = Crossbar::new(2, 2, 1);
        assert_eq!(x.evaluate(&[true]).unwrap_err(), XbarError::NoInputPort);
    }

    #[test]
    fn wrong_input_len_is_error() {
        let x = fig2_crossbar();
        assert!(matches!(
            x.evaluate(&[true]),
            Err(XbarError::InputLen {
                got: 1,
                expected: 3
            })
        ));
    }

    #[test]
    fn no_path_through_off_devices() {
        let mut x = Crossbar::new(2, 1, 1);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 0,
                negated: false,
            },
        )
        .unwrap();
        // row1-col0 left Off: even with the literal on, row 1 is unreachable.
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        assert_eq!(x.evaluate(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn multi_output_sensing() {
        // Input row 0; outputs on rows 1 and 2 with different literals.
        let mut x = Crossbar::new(3, 2, 2);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 0,
                negated: false,
            },
        )
        .unwrap();
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set(
            0,
            1,
            DeviceAssignment::Literal {
                input: 1,
                negated: false,
            },
        )
        .unwrap();
        x.set(2, 1, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f0", 1).unwrap();
        x.add_output("f1", 2).unwrap();
        assert_eq!(x.evaluate(&[true, false]).unwrap(), vec![true, false]);
        assert_eq!(x.evaluate(&[false, true]).unwrap(), vec![false, true]);
        assert_eq!(x.evaluate(&[true, true]).unwrap(), vec![true, true]);
    }

    #[test]
    fn evaluate64_agrees_with_scalar_on_fig2() {
        let x = fig2_crossbar();
        // Pack all 8 assignments into the low lanes.
        let mut words = vec![0u64; 3];
        for lane in 0..8u64 {
            for (i, w) in words.iter_mut().enumerate() {
                if lane >> i & 1 == 1 {
                    *w |= 1 << lane;
                }
            }
        }
        let wide = x.evaluate64(&words).unwrap();
        assert_eq!(wide.len(), 1);
        for lane in 0..8u64 {
            let ins: Vec<bool> = (0..3).map(|i| lane >> i & 1 == 1).collect();
            let scalar = x.evaluate(&ins).unwrap()[0];
            assert_eq!(wide[0] >> lane & 1 == 1, scalar, "lane {lane}");
        }
    }

    #[test]
    fn evaluate64_checks_arity_and_port() {
        let x = fig2_crossbar();
        assert!(matches!(
            x.evaluate64(&[0]),
            Err(XbarError::InputLen {
                got: 1,
                expected: 3
            })
        ));
        let no_port = Crossbar::new(2, 2, 1);
        assert_eq!(
            no_port.evaluate64(&[0]).unwrap_err(),
            XbarError::NoInputPort
        );
    }

    #[test]
    fn programmed_devices_iterator() {
        let x = fig2_crossbar();
        let devs: Vec<_> = x.programmed_devices().collect();
        assert_eq!(devs.len(), 6);
        assert_eq!(devs.iter().filter(|(_, _, a)| a.is_literal()).count(), 3);
    }

    #[test]
    fn render_marks_ports() {
        let x = fig2_crossbar();
        let text = x.render();
        assert!(text.contains("<- in"));
        assert!(text.contains("out:f"));
        assert!(text.contains("x2"));
    }

    #[test]
    fn bad_literal_is_a_typed_error_not_a_panic() {
        let mut x = Crossbar::new(2, 1, 1);
        x.set(
            0,
            0,
            DeviceAssignment::Literal {
                input: 7,
                negated: false,
            },
        )
        .unwrap();
        x.set(1, 0, DeviceAssignment::On).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        assert_eq!(
            x.program(&[true]).unwrap_err(),
            XbarError::BadLiteral {
                input: 7,
                num_inputs: 1
            }
        );
        assert!(matches!(
            x.evaluate(&[true]),
            Err(XbarError::BadLiteral { input: 7, .. })
        ));
        assert!(matches!(
            x.evaluate64(&[0]),
            Err(XbarError::BadLiteral { input: 7, .. })
        ));
    }

    #[test]
    fn place_identity_preserves_function() {
        let x = fig2_crossbar();
        let id_rows: Vec<usize> = (0..x.rows()).collect();
        let id_cols: Vec<usize> = (0..x.cols()).collect();
        let placed = x.place(&id_rows, &id_cols, x.rows(), x.cols()).unwrap();
        for bits in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                placed.evaluate(&ins).unwrap(),
                x.evaluate(&ins).unwrap(),
                "{bits:03b}"
            );
        }
    }

    #[test]
    fn place_permutes_and_adds_spares() {
        let x = fig2_crossbar();
        // Shuffle rows and columns into a 5×4 physical array with spares.
        let placed = x.place(&[4, 0, 2], &[3, 1, 0], 5, 4).unwrap();
        assert_eq!(placed.rows(), 5);
        assert_eq!(placed.cols(), 4);
        assert_eq!(placed.input_row(), Some(4));
        assert_eq!(placed.outputs()[0].row, 2);
        for bits in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                placed.evaluate(&ins).unwrap(),
                x.evaluate(&ins).unwrap(),
                "{bits:03b}"
            );
        }
        // Spare row 1 and spare column 2 carry no devices.
        for c in 0..4 {
            assert_eq!(placed.get(1, c).unwrap(), DeviceAssignment::Off);
        }
        for r in 0..5 {
            assert_eq!(placed.get(r, 2).unwrap(), DeviceAssignment::Off);
        }
    }

    #[test]
    fn place_rejects_malformed_permutations() {
        let x = fig2_crossbar();
        // Wrong length.
        assert!(matches!(
            x.place(&[0, 1], &[0, 1, 2], 3, 3),
            Err(XbarError::Placement { .. })
        ));
        // Out of range.
        assert!(matches!(
            x.place(&[0, 1, 5], &[0, 1, 2], 3, 3),
            Err(XbarError::Placement { .. })
        ));
        // Duplicate target.
        assert!(matches!(
            x.place(&[0, 1, 1], &[0, 1, 2], 3, 3),
            Err(XbarError::Placement { .. })
        ));
    }

    fn lit(input: usize, negated: bool) -> DeviceAssignment {
        DeviceAssignment::Literal { input, negated }
    }

    #[test]
    fn writing_off_removes_a_junction() {
        let mut x = fig2_crossbar();
        assert_eq!(x.get(1, 2).unwrap(), DeviceAssignment::Off, "never set");
        x.set(0, 0, DeviceAssignment::Off).unwrap();
        assert_eq!(x.get(0, 0).unwrap(), DeviceAssignment::Off);
        assert_eq!(x.programmed_devices().count(), 5);
        assert!(x.row_junctions[0].iter().all(|j| j.wire != 0));
        assert!(x.col_junctions[0].iter().all(|j| j.wire != 0));
        // Clearing an unset junction is a no-op.
        x.set(1, 2, DeviceAssignment::Off).unwrap();
        assert_eq!(x.programmed_devices().count(), 5);
    }

    #[test]
    fn equality_ignores_write_order_and_cleared_junctions() {
        let devices = [
            (0, 0, lit(1, false)),
            (1, 0, DeviceAssignment::On),
            (1, 1, lit(0, true)),
            (2, 1, DeviceAssignment::On),
            (0, 2, lit(2, false)),
        ];
        let mut forward = Crossbar::new(3, 3, 3);
        for &(r, c, a) in &devices {
            forward.set(r, c, a).unwrap();
        }
        let mut backward = Crossbar::new(3, 3, 3);
        for &(r, c, a) in devices.iter().rev() {
            backward.set(r, c, a).unwrap();
        }
        // Set-then-clear and overwrite leave no trace either.
        backward.set(2, 2, lit(7, false)).unwrap();
        backward.set(2, 2, DeviceAssignment::Off).unwrap();
        backward.set(1, 1, DeviceAssignment::On).unwrap();
        backward.set(1, 1, lit(0, true)).unwrap();
        assert_eq!(forward, backward);
        assert!(
            backward.evaluate(&[true, true, true]).is_err(),
            "no port yet"
        );
        backward.set(0, 1, DeviceAssignment::On).unwrap();
        assert_ne!(forward, backward);
    }

    #[test]
    fn programmed_devices_are_row_major() {
        let mut x = Crossbar::new(4, 5, 2);
        for &(r, c) in &[(3, 0), (0, 4), (2, 2), (0, 1), (3, 4), (2, 0)] {
            x.set(r, c, DeviceAssignment::On).unwrap();
        }
        let order: Vec<(usize, usize)> = x.programmed_devices().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(order, vec![(0, 1), (0, 4), (2, 0), (2, 2), (3, 0), (3, 4)]);
        let dense = x.program(&[false, false]).unwrap();
        assert_eq!(dense.len(), 20);
        assert_eq!(dense.iter().filter(|&&b| b).count(), 6);
        assert!(dense[2 * 5 + 2]);
    }

    #[test]
    fn errors_match_between_scalar_and_wide_evaluation() {
        // No input port: reported before the arity.
        let no_port = Crossbar::new(2, 2, 1);
        assert_eq!(
            no_port.evaluate(&[true, false]).unwrap_err(),
            XbarError::NoInputPort
        );
        assert_eq!(
            no_port.evaluate64(&[0, 0]).unwrap_err(),
            XbarError::NoInputPort
        );
        // Wrong arity.
        let x = fig2_crossbar();
        let len = XbarError::InputLen {
            got: 2,
            expected: 3,
        };
        assert_eq!(x.evaluate(&[true, true]).unwrap_err(), len);
        assert_eq!(x.evaluate64(&[0, 0]).unwrap_err(), len);
        assert_eq!(x.reachable_rows(&[true, true]).unwrap_err(), len);
        // A bad literal on a junction the flow never reaches (row 2 has no
        // path from the input row), behind a good one in row-major order.
        let mut x = Crossbar::new(3, 2, 1);
        x.set(0, 0, lit(0, false)).unwrap();
        x.set(2, 1, lit(9, true)).unwrap();
        x.set(2, 0, lit(5, false)).unwrap();
        x.set_input_row(0).unwrap();
        x.add_output("f", 1).unwrap();
        let bad = XbarError::BadLiteral {
            input: 5,
            num_inputs: 1,
        };
        assert_eq!(x.evaluate(&[true]).unwrap_err(), bad);
        assert_eq!(x.evaluate64(&[u64::MAX]).unwrap_err(), bad);
        assert_eq!(x.program(&[true]).unwrap_err(), bad);
        // Clearing the bad literals restores evaluation.
        x.set(2, 0, DeviceAssignment::Off).unwrap();
        x.set(2, 1, DeviceAssignment::On).unwrap();
        assert_eq!(x.evaluate(&[true]).unwrap(), vec![false]);
        assert_eq!(x.evaluate64(&[u64::MAX]).unwrap(), vec![0]);
    }

    #[test]
    fn unencodable_literal_is_rejected_at_set() {
        let mut x = Crossbar::new(1, 2, 1);
        let largest = (1 << 31) - 2;
        for negated in [false, true] {
            x.set(0, 0, lit(largest, negated)).unwrap();
            assert_eq!(x.get(0, 0).unwrap(), lit(largest, negated));
            for input in [largest + 1, usize::MAX] {
                assert_eq!(
                    x.set(0, 1, lit(input, negated)).unwrap_err(),
                    XbarError::BadLiteral {
                        input,
                        num_inputs: 1
                    }
                );
            }
        }
        assert_eq!(x.get(0, 1).unwrap(), DeviceAssignment::Off);
        assert_eq!(
            x.program(&[true]).unwrap_err(),
            XbarError::BadLiteral {
                input: largest,
                num_inputs: 1
            }
        );
    }

    #[test]
    fn serpentine_path_of_length_r_plus_c_evaluates() {
        // A staircase walking row 0 → col 0 → row 1 → col 1 → … → row n−1,
        // with the junctions written in reverse order so the path runs
        // against every list's storage order. Each junction is literal
        // x_(k mod 2) on even steps and the stuck-on bridge on odd ones, so
        // the output is 1 exactly when both inputs are 1.
        let n = 40;
        let mut x = Crossbar::new(n, n - 1, 2);
        for k in (0..n - 1).rev() {
            x.set(k, k, lit(k % 2, false)).unwrap();
            x.set(k + 1, k, DeviceAssignment::On).unwrap();
        }
        x.set_input_row(0).unwrap();
        x.add_output("end", n - 1).unwrap();
        x.add_output("mid", n / 2).unwrap();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            assert_eq!(x.evaluate(&[a, b]).unwrap(), vec![a && b, a && b]);
        }
        let wide = x.evaluate64(&[0b1010, 0b1100]).unwrap();
        assert_eq!(wide[0] & 0b1111, 0b1000);
        assert_eq!(wide[1] & 0b1111, 0b1000);
        let reached = x.reachable_rows(&[true, false]).unwrap();
        assert_eq!(reached.iter().filter(|&&r| r).count(), 2, "rows 0 and 1");
    }

    #[test]
    fn labels_roundtrip() {
        let mut x = Crossbar::new(2, 2, 1);
        x.set_row_label(0, "root").unwrap();
        x.set_col_label(1, "n3").unwrap();
        assert_eq!(x.row_label(0), "root");
        assert_eq!(x.col_label(1), "n3");
        assert_eq!(x.row_label(1), "");
        assert!(x.set_row_label(5, "bad").is_err());
    }
}
