//! Text assembler and programmatic builder for shader programs.
//!
//! The text syntax is a compact PTX dialect; see the crate-level example.
//! Labels name instruction positions; divergent branches name their
//! reconvergence point explicitly (`bra TARGET, reconv=LABEL`), which the
//! SIMT-stack model uses as the immediate post-dominator.

use crate::op::{AluKind, CmpOp, Instr, MemSpace, Op, UnaryKind};
use crate::program::{Program, ProgramError};
use crate::reg::{DType, Operand, PReg, Reg, Special};
use std::collections::HashMap;
use std::fmt;

/// Error produced while assembling source text or building a program.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmError {
    /// A syntax or semantic error at a source line (1-based).
    Parse {
        /// 1-based source line number.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined more than once.
    DuplicateLabel(String),
    /// The finished program failed validation.
    Invalid(ProgramError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> Self {
        AsmError::Invalid(e)
    }
}

/// Pending instruction with unresolved label references.
#[derive(Debug, Clone)]
enum PendingOp {
    Ready(Op),
    Bra { target: String, reconv: String },
}

/// Incremental program construction with label-based control flow: the
/// text assembler's back end.
#[derive(Debug, Clone)]
struct ProgramBuilder {
    name: String,
    instrs: Vec<(Option<(PReg, bool)>, PendingOp)>,
    labels: HashMap<String, usize>,
    pending_guard: Option<(PReg, bool)>,
    error: Option<AsmError>,
}

impl ProgramBuilder {
    /// Starts a new program.
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            instrs: Vec::new(),
            labels: HashMap::new(),
            pending_guard: None,
            error: None,
        }
    }

    /// Defines a label at the current position.
    fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        if self
            .labels
            .insert(name.clone(), self.instrs.len())
            .is_some()
        {
            self.error.get_or_insert(AsmError::DuplicateLabel(name));
        }
        self
    }

    /// Applies a guard (`@p` or `@!p`) to the *next* pushed instruction.
    fn guard(&mut self, p: PReg, negated: bool) -> &mut Self {
        self.pending_guard = Some((p, negated));
        self
    }

    /// Pushes a raw operation.
    fn push(&mut self, op: Op) -> &mut Self {
        let g = self.pending_guard.take();
        self.instrs.push((g, PendingOp::Ready(op)));
        self
    }

    /// `mov.b32 d, a`.
    fn mov(&mut self, d: Reg, a: impl Into<Operand>) -> &mut Self {
        self.push(Op::Mov { d, a: a.into() })
    }

    /// Two-operand ALU helper.
    fn alu(
        &mut self,
        kind: AluKind,
        ty: DType,
        d: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Op::Alu {
            kind,
            ty,
            d,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Unary op helper.
    fn unary(&mut self, kind: UnaryKind, ty: DType, d: Reg, a: impl Into<Operand>) -> &mut Self {
        self.push(Op::Unary {
            kind,
            ty,
            d,
            a: a.into(),
        })
    }

    /// `setp.<cmp>.<ty> p, a, b`.
    fn setp(
        &mut self,
        p: PReg,
        cmp: CmpOp,
        ty: DType,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.push(Op::SetP {
            p,
            cmp,
            ty,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `ld.<space>.b32 d, [addr+offset]`.
    fn ld(&mut self, space: MemSpace, d: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.push(Op::Ld {
            space,
            d,
            addr,
            offset,
        })
    }

    /// `st.<space>.b32 [addr+offset], a`.
    fn st(&mut self, space: MemSpace, a: impl Into<Operand>, addr: Reg, offset: i32) -> &mut Self {
        self.push(Op::St {
            space,
            a: a.into(),
            addr,
            offset,
        })
    }

    /// Branch to `target` reconverging at `reconv` (labels).
    fn bra(&mut self, target: impl Into<String>, reconv: impl Into<String>) -> &mut Self {
        let g = self.pending_guard.take();
        self.instrs.push((
            g,
            PendingOp::Bra {
                target: target.into(),
                reconv: reconv.into(),
            },
        ));
        self
    }

    /// `tex2d d..d+3, [u, v], sampler`.
    fn tex2d(&mut self, d: Reg, u: Reg, v: Reg, sampler: u8) -> &mut Self {
        self.push(Op::Tex2d { d, u, v, sampler })
    }

    /// `ztest z` (optionally writing the depth buffer).
    fn ztest(&mut self, z: Reg, write: bool) -> &mut Self {
        self.push(Op::Ztest { z, write })
    }

    /// `blend c..c+3`.
    fn blend(&mut self, c: Reg) -> &mut Self {
        self.push(Op::Blend { c })
    }

    /// `fbwrite c..c+3`.
    fn fbwrite(&mut self, c: Reg) -> &mut Self {
        self.push(Op::FbWrite { c })
    }

    /// `bar.sync`.
    fn bar(&mut self) -> &mut Self {
        self.push(Op::Bar)
    }

    /// `exit`.
    fn exit(&mut self) -> &mut Self {
        self.push(Op::Exit)
    }

    /// `nop`.
    fn nop(&mut self) -> &mut Self {
        self.push(Op::Nop)
    }

    /// Resolves labels and validates the program.
    ///
    /// # Errors
    ///
    /// Returns the first recorded builder error, an undefined-label error,
    /// or a validation error from [`Program::new`].
    fn build(&self) -> Result<Program, AsmError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let mut out = Vec::with_capacity(self.instrs.len());
        for (guard, pending) in &self.instrs {
            let op = match pending {
                PendingOp::Ready(op) => op.clone(),
                PendingOp::Bra { target, reconv } => {
                    let t = *self
                        .labels
                        .get(target)
                        .ok_or_else(|| AsmError::UndefinedLabel(target.clone()))?;
                    let r = *self
                        .labels
                        .get(reconv)
                        .ok_or_else(|| AsmError::UndefinedLabel(reconv.clone()))?;
                    Op::Bra {
                        target: t,
                        reconv: r,
                    }
                }
            };
            out.push(Instr { guard: *guard, op });
        }
        Ok(Program::new(self.name.clone(), out)?)
    }
}

/// Assembles source text into a validated [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] pinpointing the offending line on syntax errors,
/// or a validation error for structurally invalid programs.
///
/// # Examples
///
/// ```
/// let p = emerald_isa::assemble("mov.b32 r0, %laneid\nexit").unwrap();
/// assert_eq!(p.len(), 2);
/// ```
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    assemble_named("asm", src)
}

/// [`assemble`] with an explicit program name.
///
/// # Errors
///
/// Same as [`assemble`].
pub fn assemble_named(name: &str, src: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new(name);
    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        parse_line(&mut b, line).map_err(|msg| AsmError::Parse { line: lineno, msg })?;
    }
    b.build()
}

fn strip_comment(line: &str) -> &str {
    let end = line
        .find("//")
        .or_else(|| line.find(';'))
        .unwrap_or(line.len());
    &line[..end]
}

fn parse_line(b: &mut ProgramBuilder, mut line: &str) -> Result<(), String> {
    // Labels (possibly several, possibly followed by an instruction).
    while let Some(colon) = line.find(':') {
        let (head, rest) = line.split_at(colon);
        let head = head.trim();
        if head.is_empty() || !head.chars().all(|c| c.is_alphanumeric() || c == '_') {
            break;
        }
        b.label(head);
        line = rest[1..].trim();
    }
    if line.is_empty() {
        return Ok(());
    }

    // Guard prefix.
    if let Some(rest) = line.strip_prefix('@') {
        let (neg, rest) = match rest.strip_prefix('!') {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let sp = rest
            .find(char::is_whitespace)
            .ok_or("expected instruction after guard")?;
        let p = parse_pred(&rest[..sp])?;
        b.guard(p, neg);
        line = rest[sp..].trim_start();
    }

    let (mnemonic, args) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    };
    let parts: Vec<&str> = mnemonic.split('.').collect();
    let base = parts[0];

    let arg_list: Vec<String> = split_args(args);
    let arg = |i: usize| -> Result<&str, String> {
        arg_list
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing operand {i}"))
    };

    match base {
        "nop" => {
            b.nop();
        }
        "exit" => {
            b.exit();
        }
        "bar" => {
            b.bar();
        }
        "mov" => {
            let d = parse_reg(arg(0)?)?;
            let a = parse_operand(arg(1)?)?;
            b.mov(d, a);
        }
        "add" | "sub" | "mul" | "div" | "min" | "max" | "and" | "or" | "xor" | "shl" | "shr" => {
            let kind = match base {
                "add" => AluKind::Add,
                "sub" => AluKind::Sub,
                "mul" => AluKind::Mul,
                "div" => AluKind::Div,
                "min" => AluKind::Min,
                "max" => AluKind::Max,
                "and" => AluKind::And,
                "or" => AluKind::Or,
                "xor" => AluKind::Xor,
                "shl" => AluKind::Shl,
                _ => AluKind::Shr,
            };
            let ty = parse_type(parts.get(1).copied().unwrap_or("b32"))?;
            let d = parse_reg(arg(0)?)?;
            let a = parse_operand(arg(1)?)?;
            let c = parse_operand(arg(2)?)?;
            b.alu(kind, ty, d, a, c);
        }
        "mad" => {
            let ty = parse_type(parts.get(1).copied().unwrap_or("f32"))?;
            let d = parse_reg(arg(0)?)?;
            let a = parse_operand(arg(1)?)?;
            let x = parse_operand(arg(2)?)?;
            let c = parse_operand(arg(3)?)?;
            b.push(Op::Mad { ty, d, a, b: x, c });
        }
        "neg" | "abs" | "rcp" | "sqrt" | "rsqrt" | "floor" | "frac" | "ex2" | "lg2" | "sin"
        | "cos" => {
            let kind = match base {
                "neg" => UnaryKind::Neg,
                "abs" => UnaryKind::Abs,
                "rcp" => UnaryKind::Rcp,
                "sqrt" => UnaryKind::Sqrt,
                "rsqrt" => UnaryKind::Rsqrt,
                "floor" => UnaryKind::Floor,
                "frac" => UnaryKind::Frac,
                "ex2" => UnaryKind::Ex2,
                "lg2" => UnaryKind::Lg2,
                "sin" => UnaryKind::Sin,
                _ => UnaryKind::Cos,
            };
            let ty = parse_type(parts.get(1).copied().unwrap_or("f32"))?;
            let d = parse_reg(arg(0)?)?;
            let a = parse_operand(arg(1)?)?;
            b.unary(kind, ty, d, a);
        }
        "cvt" => {
            // cvt.TO.FROM d, a
            let to = parse_type(parts.get(1).copied().ok_or("cvt needs .to.from")?)?;
            let from = parse_type(parts.get(2).copied().ok_or("cvt needs .to.from")?)?;
            let d = parse_reg(arg(0)?)?;
            let a = parse_operand(arg(1)?)?;
            b.push(Op::Cvt { d, a, from, to });
        }
        "setp" => {
            let cmp = match parts.get(1).copied().ok_or("setp needs .cmp.type")? {
                "eq" => CmpOp::Eq,
                "ne" => CmpOp::Ne,
                "lt" => CmpOp::Lt,
                "le" => CmpOp::Le,
                "gt" => CmpOp::Gt,
                "ge" => CmpOp::Ge,
                other => return Err(format!("unknown comparison `{other}`")),
            };
            let ty = parse_type(parts.get(2).copied().unwrap_or("f32"))?;
            let p = parse_pred(arg(0)?)?;
            let a = parse_operand(arg(1)?)?;
            let c = parse_operand(arg(2)?)?;
            b.setp(p, cmp, ty, a, c);
        }
        "sel" => {
            let d = parse_reg(arg(0)?)?;
            let p = parse_pred(arg(1)?)?;
            let a = parse_operand(arg(2)?)?;
            let c = parse_operand(arg(3)?)?;
            b.push(Op::Sel { d, p, a, b: c });
        }
        "ld" => {
            let space = parse_space(parts.get(1).copied().ok_or("ld needs a space")?)?;
            let d = parse_reg(arg(0)?)?;
            let (addr, offset) = parse_addr(arg(1)?)?;
            b.ld(space, d, addr, offset);
        }
        "st" => {
            let space = parse_space(parts.get(1).copied().ok_or("st needs a space")?)?;
            let (addr, offset) = parse_addr(arg(0)?)?;
            let a = parse_operand(arg(1)?)?;
            b.st(space, a, addr, offset);
        }
        "bra" => {
            let target = arg(0)?.to_string();
            let reconv = match arg_list.get(1) {
                Some(r) => r
                    .strip_prefix("reconv=")
                    .ok_or("second bra operand must be reconv=LABEL")?
                    .to_string(),
                None => target.clone(),
            };
            b.bra(target, reconv);
        }
        "tex2d" => {
            // tex2d rD, [rU, rV], sN
            let d = parse_reg(arg(0)?)?;
            let uv = arg(1)?;
            let inner = uv
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or("tex2d coords must be [rU, rV]")?;
            let mut it = inner.split(',').map(str::trim);
            let u = parse_reg(it.next().ok_or("missing u")?)?;
            let v = parse_reg(it.next().ok_or("missing v")?)?;
            let s = arg(2)?
                .strip_prefix('s')
                .ok_or("sampler must be sN")?
                .parse::<u8>()
                .map_err(|e| e.to_string())?;
            b.tex2d(d, u, v, s);
        }
        "ztest" => {
            let write = parts.get(1) == Some(&"w");
            let z = parse_reg(arg(0)?)?;
            b.ztest(z, write);
        }
        "blend" => {
            let c = parse_reg(arg(0)?)?;
            b.blend(c);
        }
        "fbwrite" => {
            let c = parse_reg(arg(0)?)?;
            b.fbwrite(c);
        }
        other => return Err(format!("unknown mnemonic `{other}`")),
    }
    Ok(())
}

/// Splits an operand list on commas, keeping `[rN, rM]` groups intact.
fn split_args(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in args.chars() {
        match ch {
            '[' => {
                depth += 1;
                cur.push(ch);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                if !cur.trim().is_empty() {
                    out.push(cur.trim().to_string());
                }
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn parse_type(s: &str) -> Result<DType, String> {
    match s {
        "f32" => Ok(DType::F32),
        "s32" => Ok(DType::S32),
        "u32" | "b32" => Ok(DType::U32),
        other => Err(format!("unknown type `{other}`")),
    }
}

fn parse_space(s: &str) -> Result<MemSpace, String> {
    match s {
        "global" => Ok(MemSpace::Global),
        "const" => Ok(MemSpace::Const),
        "vertex" => Ok(MemSpace::Vertex),
        "shared" => Ok(MemSpace::Shared),
        other => Err(format!("unknown memory space `{other}`")),
    }
}

fn parse_reg(s: &str) -> Result<Reg, String> {
    s.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .map(Reg)
        .ok_or_else(|| format!("expected register, got `{s}`"))
}

fn parse_pred(s: &str) -> Result<PReg, String> {
    s.strip_prefix('p')
        .and_then(|n| n.parse::<u8>().ok())
        .map(PReg)
        .ok_or_else(|| format!("expected predicate, got `{s}`"))
}

fn parse_addr(s: &str) -> Result<(Reg, i32), String> {
    let inner = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| format!("expected [rN±off], got `{s}`"))?;
    if let Some(plus) = inner.find('+') {
        let r = parse_reg(inner[..plus].trim())?;
        let off = inner[plus + 1..]
            .trim()
            .parse::<i32>()
            .map_err(|e| e.to_string())?;
        Ok((r, off))
    } else if let Some(minus) = inner[1..].find('-').map(|i| i + 1) {
        let r = parse_reg(inner[..minus].trim())?;
        let off = inner[minus + 1..]
            .trim()
            .parse::<i32>()
            .map_err(|e| e.to_string())?;
        Ok((r, -off))
    } else {
        Ok((parse_reg(inner.trim())?, 0))
    }
}

fn parse_operand(s: &str) -> Result<Operand, String> {
    if let Ok(r) = parse_reg(s) {
        return Ok(Operand::Reg(r));
    }
    if let Some(rest) = s.strip_prefix('%') {
        if rest == "laneid" {
            return Ok(Operand::Special(Special::LaneId));
        }
        if let Some(k) = rest.strip_prefix("input") {
            let k = k.parse::<u8>().map_err(|e| e.to_string())?;
            return Ok(Operand::Special(Special::Input(k)));
        }
        if let Some(k) = rest.strip_prefix("param") {
            let k = k.parse::<u8>().map_err(|e| e.to_string())?;
            return Ok(Operand::Special(Special::Param(k)));
        }
        return Err(format!("unknown special `{s}`"));
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return u32::from_str_radix(hex, 16)
            .map(Operand::ImmI)
            .map_err(|e| e.to_string());
    }
    if s.contains('.') || s.contains("e-") || s.contains("e+") {
        return s
            .parse::<f32>()
            .map(Operand::ImmF)
            .map_err(|e| e.to_string());
    }
    if let Ok(v) = s.parse::<i64>() {
        if (i32::MIN as i64..=u32::MAX as i64).contains(&v) {
            return Ok(Operand::ImmI(v as u32));
        }
    }
    Err(format!("cannot parse operand `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    #[test]
    fn assembles_every_mnemonic_class() {
        let src = r#"
            // kitchen sink
            START:
            mov.b32   r0, %laneid
            add.f32   r1, r0, 1.5
            mad.f32   r2, r1, 2.0, r0
            neg.f32   r3, r2
            cvt.s32.f32 r4, r3
            setp.lt.s32 p0, r4, 10
            sel.b32   r5, p0, 1, 0
            ld.global.b32 r6, [r5+16]
            st.shared.b32 [r5-4], r6
            @p0 bra END, reconv=END
            tex2d r8, [r0, r1], s0
            ztest.w r2
            blend r8
            fbwrite r8
            bar.sync
            nop
            END:
            exit
        "#;
        let p = assemble(src).unwrap();
        assert_eq!(p.len(), 17);
        // Branch resolved to the exit instruction.
        if let Op::Bra { target, reconv } = p.instr(9).op {
            assert_eq!(target, 16);
            assert_eq!(reconv, 16);
        } else {
            panic!("expected bra");
        }
    }

    #[test]
    fn negative_offsets_and_hex() {
        let p = assemble(
            "mov.b32 r1, 0x10\n\
             ld.const.b32 r0, [r1-8]\n\
             exit",
        )
        .unwrap();
        if let Op::Ld { offset, .. } = p.instr(1).op {
            assert_eq!(offset, -8);
        } else {
            panic!("expected ld");
        }
    }

    #[test]
    fn error_reports_line() {
        let err = assemble("mov.b32 r0, %laneid\nbogus r1\nexit").unwrap_err();
        match err {
            AsmError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("bogus"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn undefined_label_detected() {
        let err = assemble("bra NOWHERE\nexit").unwrap_err();
        assert_eq!(err, AsmError::UndefinedLabel("NOWHERE".into()));
    }

    #[test]
    fn duplicate_label_detected() {
        let err = assemble("A:\nnop\nA:\nexit").unwrap_err();
        assert_eq!(err, AsmError::DuplicateLabel("A".into()));
    }

    #[test]
    fn builder_matches_assembler() {
        let mut b = ProgramBuilder::new("t");
        b.mov(Reg(0), Special::LaneId);
        b.alu(AluKind::Add, DType::F32, Reg(1), Reg(0), 1.0);
        b.label("L");
        b.guard(PReg(0), true);
        b.bra("L", "L");
        b.exit();
        let built = b.build().unwrap();
        let asm = assemble_named(
            "t",
            "mov.b32 r0, %laneid\nadd.f32 r1, r0, 1.0\nL:\n@!p0 bra L, reconv=L\nexit",
        )
        .unwrap();
        assert_eq!(built, asm);
    }

    #[test]
    fn unconditional_bra_defaults_reconv_to_target() {
        let p = assemble("bra END\nnop\nEND:\nexit").unwrap();
        if let Op::Bra { target, reconv } = p.instr(0).op {
            assert_eq!(target, 2);
            assert_eq!(reconv, 2);
        } else {
            panic!("expected bra");
        }
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let p = assemble("L: nop\nbra L\nexit").unwrap();
        if let Op::Bra { target, .. } = p.instr(1).op {
            assert_eq!(target, 0);
        } else {
            panic!("expected bra");
        }
    }

    #[test]
    fn comments_are_stripped() {
        let p = assemble("nop // trailing\n; whole line\nexit").unwrap();
        assert_eq!(p.len(), 2);
    }
}
